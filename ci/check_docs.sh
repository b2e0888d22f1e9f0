#!/usr/bin/env bash
# Doc and bookkeeping check: fails when a markdown file references a
# repository path that does not exist, when a design doc is unreachable,
# or when a list kept in two places has drifted. The checks:
#
#   1. relative markdown link targets:   [text](docs/FOO.md)
#   2. backticked repo paths:            `crates/core/src/plan.rs`
#      (only tokens rooted at a known top-level directory are checked,
#      so prose like `cargo test` or `a/b` pseudo-paths are ignored)
#   3. reachability: every docs/*.md must be linked from README.md,
#      directly or via the docs/README.md index (which itself must be
#      linked from README.md) — no orphaned design docs.
#   4. `STATS` counters: the names in the one `counters!` table of
#      src/server/mod.rs and the names in the counter table of
#      docs/SERVICE.md must be the same set.
#   5. the bench manifest: the binaries named in ci/bench_manifest.txt and
#      the crates/bench/src/bin/*.rs experiments (all but bench_gate.rs)
#      must be the same set.
#   6. retired names: no tracked file outside the history files and the
#      ledger (whose stats.rs uses the English word) may name the
#      measurement systems the ledger and the exact gate replaced.
#   7. retired parallel pipeline: no tracked file outside the history
#      files may name the heap merge or the work-stealing shim that the
#      in-order drain and the claim cursor replaced.
#   8. one probe loop: (a) outside tests, crates/core/src calls a CDS's
#      `get_probe_point` only from the arms of stream.rs's `Cds` dispatch,
#      and the loop calls that dispatch once; (b) no tracked file outside
#      the history files names the deleted bow-tie copy of the loop.
#   9. markdown files named in Rust sources: every `NAME.md` a tracked
#      `.rs` file mentions exists, at the repository root or in the
#      file's own directory or one above it.
#  10. the gate's stated size: ci/README.md's "N counters from M
#      binaries" matches the keys of ci/bench_baseline.json and the
#      binaries of ci/bench_manifest.txt.
#
# Usage: ci/check_docs.sh [FILE.md ...]   (defaults to docs/*.md,
# README.md, and ci/README.md, run from the repository root; the
# reachability check always runs against the real README/docs set)

set -euo pipefail

files=("$@")
if [ "${#files[@]}" -eq 0 ]; then
    files=(docs/*.md README.md ci/README.md)
fi

fail=0

check_path() {
    # $1 = markdown file, $2 = referenced path (relative to repo root or
    # to the markdown file's directory).
    local md="$1" ref="$2"
    ref="${ref%%#*}"          # drop fragment
    ref="${ref%/}"            # drop trailing slash
    [ -z "$ref" ] && return 0
    if [ -e "$ref" ] || [ -e "$(dirname "$md")/$ref" ]; then
        return 0
    fi
    echo "ERROR: $md references nonexistent path: $ref"
    fail=1
}

# True when $1 contains a markdown link whose target resolves to the
# file $2 (targets are resolved relative to $1's directory and to the
# repository root, fragments dropped).
links_to() {
    local md="$1" want="$2" target
    while IFS= read -r target; do
        target="${target%%#*}"
        target="${target%/}"
        [ -z "$target" ] && continue
        for candidate in "$target" "$(dirname "$md")/$target"; do
            if [ -e "$candidate" ] &&
               [ "$(realpath -m "$candidate")" = "$(realpath -m "$want")" ]; then
                return 0
            fi
        done
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
    return 1
}

for md in "${files[@]}"; do
    [ -f "$md" ] || { echo "ERROR: no such file: $md"; fail=1; continue; }

    # 1. Relative markdown link targets (skip http(s):, mailto:, and
    #    pure-fragment links).
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) ;;
            *) check_path "$md" "$target" ;;
        esac
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')

    # 2. Backticked tokens rooted at a real top-level directory.
    while IFS= read -r token; do
        check_path "$md" "$token"
    done < <(grep -oE '`(crates|src|ci|docs|examples|tests|\.github)/[A-Za-z0-9_./-]+`' "$md" \
             | tr -d '`')
done

# 3. Reachability: every design doc must be discoverable from README.md.
if [ -f README.md ] && [ -d docs ]; then
    index=docs/README.md
    if [ -f "$index" ] && ! links_to README.md "$index"; then
        echo "ERROR: README.md does not link the doc index $index"
        fail=1
    fi
    for doc in docs/*.md; do
        [ "$doc" = "$index" ] && continue
        if links_to README.md "$doc"; then
            continue
        fi
        if [ -f "$index" ] && links_to "$index" "$doc"; then
            continue
        fi
        echo "ERROR: $doc is unreachable (not linked from README.md or $index)"
        fail=1
    done
fi

# 4. The STATS counter list: code and operator docs name the same set.
stats_src=src/server/mod.rs
stats_doc=docs/SERVICE.md
if [ -f "$stats_src" ] && [ -f "$stats_doc" ]; then
    # Entries of `counters! { … }`: `name;` (tally) or `name = expr;` (gauge).
    in_code=$(awk '/^counters! \{/ { on = 1; next } on && /^\}/ { exit } on' "$stats_src" \
              | grep -oE '^    [a-z_]+(;| = )' | grep -oE '[a-z_]+' | sort)
    # First column of the `| counter | meaning |` table, names backticked.
    in_docs=$(awk '/^\| counter \| meaning \|/ { on = 1; next } on && !/^\|/ { exit } on' "$stats_doc" \
              | cut -d'|' -f2 | grep -oE '`[a-z_]+`' | tr -d '`' | sort)
    if [ -z "$in_code" ] || [ -z "$in_docs" ]; then
        echo "ERROR: could not read the STATS counter list from $stats_src / $stats_doc"
        fail=1
    fi
    while IFS= read -r name; do
        echo "ERROR: STATS counter \`$name\` is in $stats_src but not in $stats_doc"
        fail=1
    done < <(comm -23 <(echo "$in_code") <(echo "$in_docs"))
    while IFS= read -r name; do
        echo "ERROR: STATS counter \`$name\` is in $stats_doc but not in $stats_src"
        fail=1
    done < <(comm -13 <(echo "$in_code") <(echo "$in_docs"))
fi

# 5. The bench manifest lists exactly the experiment binaries.
manifest=ci/bench_manifest.txt
in_manifest=$(grep -vE '^(#|$)' "$manifest" | cut -d' ' -f1 | sort)
in_tree=$(basename -s .rs crates/bench/src/bin/*.rs | grep -vx bench_gate | sort)
while IFS= read -r name; do
    echo "ERROR: $manifest names \`$name\` but crates/bench/src/bin/$name.rs does not exist"
    fail=1
done < <(comm -23 <(echo "$in_manifest") <(echo "$in_tree"))
while IFS= read -r name; do
    echo "ERROR: crates/bench/src/bin/$name.rs is missing from $manifest"
    fail=1
done < <(comm -13 <(echo "$in_manifest") <(echo "$in_tree"))

# 6. Retired measurement names (bracketed so this script does not match
#    itself): the wall-clock counter prefix, the load generator, the
#    micro-bench crate.
retired='time[_]ms_|serve[_]load|criteri[o]n'
if hits=$(git grep -nE "$retired" -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' \
              ':!crates/bench/src/bin/ledger'); then
    echo "$hits" | sed 's/^/ERROR: retired name in /'
    fail=1
elif [ $? -ne 1 ]; then
    echo "ERROR: git grep failed; run from a git checkout"
    fail=1
fi

# 7. Retired parallel-pipeline names (bracketed for the same reason). The
#    root-level notes other than README.md (change log, roadmap, task and
#    paper notes) quote them on purpose and are skipped.
retired='Global[O]rderMerge|Gao[O]rder|lower[_]corner|global-order-hea[p]|Steal[Q]ueue|scope[d][-_]pool'
mapfile -t tracked < <(git ls-files -- ':(exclude,glob)*.md'; echo README.md)
if hits=$(git grep -nE "$retired" -- "${tracked[@]}"); then
    echo "$hits" | sed 's/^/ERROR: retired name in /'
    fail=1
elif [ $? -ne 1 ]; then
    echo "ERROR: git grep failed; run from a git checkout"
    fail=1
fi

# 8. One probe loop. Non-test code is everything before a file's first
#    `#[cfg(test)]` (tests.rs files are all test code); comment lines are
#    skipped. (a) Each CDS type has its own `get_probe_point`, so the one
#    legal call site is an arm of `Cds::next_probe`, and the loop is the
#    one caller of `next_probe`.
core_code() {
    local f
    for f in crates/core/src/*.rs; do
        [ "$(basename "$f")" = tests.rs ] && continue
        awk -v f="$f" '/#\[cfg\(test\)\]/ { exit }
            { t = $0; sub(/^[ \t]+/, "", t) } t !~ /^\/\// { print f ":" FNR ": " t }' "$f"
    done
}
dispatch_arm='^crates/core/src/stream\.rs:[0-9]+: Cds::[A-Za-z]+\(cds\) => cds\.get_probe_point\('
while IFS= read -r hit; do
    echo "ERROR: a second probe loop calls get_probe_point outside the Cds dispatch: $hit"
    fail=1
done < <(core_code | grep -F 'get_probe_point(' | grep -vE "$dispatch_arm" || true)
callers=$(core_code | grep -cF '.next_probe(' || true)
if [ "$callers" -ne 1 ]; then
    echo "ERROR: crates/core/src calls Cds::next_probe $callers times; the one probe loop calls it once"
    fail=1
fi
# (b) The deleted bow-tie copy (bracketed so this script does not match
#     itself). The top-level Markdown notes record history and may name it.
mapfile -t tracked < <(git ls-files -- . ':(top,glob,exclude)*.md')
if hits=$(git grep -nE 'bowtie[_]join|bowtie[.]rs' -- "${tracked[@]}"); then
    echo "$hits" | sed 's/^/ERROR: retired name in /'
    fail=1
elif [ $? -ne 1 ]; then
    echo "ERROR: git grep failed; run from a git checkout"
    fail=1
fi

# 9. Markdown files named in Rust sources exist.
while IFS=: read -r rs line md; do
    dir=$(dirname "$rs")
    if [ -e "$md" ] || [ -e "$dir/$md" ] || [ -e "$(dirname "$dir")/$md" ]; then
        continue
    fi
    echo "ERROR: $rs:$line names $md, which does not exist"
    fail=1
done < <(git grep -noE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' -- '*.rs')

# 10. The gate's size as ci/README.md states it.
baseline=ci/bench_baseline.json
stated=$(grep -oE '[0-9]+ counters from [0-9]+ binaries' ci/README.md || true)
keys=$(grep -cE '^[[:space:]]*"[^"]+":' "$baseline" || true)
bins=$(grep -c . <<<"$in_manifest" || true)
if [ "$stated" != "$keys counters from $bins binaries" ]; then
    echo "ERROR: ci/README.md states \"${stated:-no gate size}\"; $baseline holds $keys counters from $bins binaries"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "doc check: FAILED"
    exit 1
fi
echo "doc check: OK (${#files[@]} file(s))"
