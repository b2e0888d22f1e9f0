#!/usr/bin/env bash
# The counter gate: builds the experiment binaries, runs every line of
# ci/bench_manifest.txt with `--json`, and has bench_gate compare the merged
# counters exactly with ci/bench_baseline.json (also written to
# BENCH_pr.json). `ci/bench.sh --regen` rewrites the baseline instead; commit
# it together with the change that moved the counters, and say why.
#
# Usage: ci/bench.sh [--regen]   (run from the repository root)

set -euo pipefail

case "${1:-}" in
    "") emit=BENCH_pr.json ;;
    --regen) emit=ci/bench_baseline.json ;;
    *) echo "usage: ci/bench.sh [--regen]" >&2; exit 2 ;;
esac

cargo build --release -p minesweeper-bench
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
files=()
while read -r bin args; do
    echo "== $bin $args"
    # shellcheck disable=SC2086  # the manifest's arguments are split on purpose
    "target/release/$bin" $args --json "$out/$bin.json"
    files+=("$out/$bin.json")
done < <(grep -vE '^(#|$)' ci/bench_manifest.txt)
target/release/bench_gate --baseline ci/bench_baseline.json --emit "$emit" "${files[@]}"
