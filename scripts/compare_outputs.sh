#!/usr/bin/env bash
# Check that the working tree writes the same default-grid outputs as REV.
#
#     scripts/compare_outputs.sh REV [SEED...]
#
# For each SEED (default: 1), runs `mootopt run --data data --seed SEED`
# and then `mootopt rank` twice: in a `git archive` of REV and in the
# working tree, printing the wall seconds of each tree's run and rank and
# the line count of its src/mootopt. Then diffs each seed's two output
# directories with `diff -r`, prints each file that differs, and exits 1
# if any does, 0 if all are identical. When a seed's outputs differ it
# also prints scripts/diff_results.py's summary of the changed records
# and rank tables; neither the summary, the timings nor the line counts
# affect the exit status.
set -euo pipefail

rev=${1:?usage: scripts/compare_outputs.sh REV [SEED...]}
shift
seeds=("${@:-1}")
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

seconds() {  # seconds T0 T1: T1 - T0, two $EPOCHREALTIME readings
    awk -v t0="$1" -v t1="$2" 'BEGIN { printf "%.2f", t1 - t0 }'
}

grid() {  # grid TREE OUT NAME SEED: the default grid and its ranking, from TREE's source
    local t0 t1 t2
    t0=$EPOCHREALTIME
    (cd "$1" && PYTHONPATH=src python3 -m mootopt.cli run --data data --seed "$4" \
        --out "$2" >/dev/null)
    t1=$EPOCHREALTIME
    (cd "$1" && PYTHONPATH=src python3 -m mootopt.cli rank "$2" >/dev/null)
    t2=$EPOCHREALTIME
    echo "$3, seed $4: run $(seconds "$t0" "$t1") s, rank $(seconds "$t1" "$t2") s (wall)," \
        "src/mootopt $(cat "$1"/src/mootopt/*.py | wc -l) lines"
}

cd "$tmp"
status=0
for seed in "${seeds[@]}"; do
    grid "$tmp/base" "$tmp/out-base-$seed" "$rev" "$seed"
    grid "$root" "$tmp/out-tree-$seed" "working tree" "$seed"
    if diff -r "out-base-$seed" "out-tree-$seed" >/dev/null; then
        echo "seed $seed: every output file is identical to $rev's"
        continue
    fi
    status=1
    echo "seed $seed: output files that differ from $rev's" \
        "(out-base-$seed: $rev, out-tree-$seed: working tree):"
    diff -rq "out-base-$seed" "out-tree-$seed" || true
    python3 "$root/scripts/diff_results.py" "out-base-$seed" "out-tree-$seed" || true
done
exit "$status"
