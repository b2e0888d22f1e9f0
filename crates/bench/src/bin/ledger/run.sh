#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): builds `msj` and the
# ledger from source into one target directory, then runs the ledger with
# the arguments given. Fails, printing no result, where the repository's
# sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$here/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin msj
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
