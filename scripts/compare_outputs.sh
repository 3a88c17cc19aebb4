#!/usr/bin/env bash
# Check that the working tree writes the same default-grid outputs as REV.
#
#     scripts/compare_outputs.sh REV
#
# Runs `mootopt run --data data --seed 1` and then `mootopt rank` twice:
# in a `git archive` of REV and in the working tree, printing the wall
# seconds of each tree's run and rank and the line count of its
# src/mootopt. Then diffs the two output directories with `diff -r`,
# prints each file that differs, and exits 1 if any does, 0 if all are
# identical. When they differ it also prints
# scripts/diff_results.py's summary of the changed records and rank
# tables; neither the summary, the timings nor the line counts affect the
# exit status.
set -euo pipefail

rev=${1:?usage: scripts/compare_outputs.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

seconds() {  # seconds T0 T1: T1 - T0, two $EPOCHREALTIME readings
    awk -v t0="$1" -v t1="$2" 'BEGIN { printf "%.2f", t1 - t0 }'
}

grid() {  # grid TREE OUT NAME: the default grid and its ranking, from TREE's source
    local t0 t1 t2
    t0=$EPOCHREALTIME
    (cd "$1" && PYTHONPATH=src python3 -m mootopt.cli run --data data --seed 1 \
        --out "$2" >/dev/null)
    t1=$EPOCHREALTIME
    (cd "$1" && PYTHONPATH=src python3 -m mootopt.cli rank "$2" >/dev/null)
    t2=$EPOCHREALTIME
    echo "$3: run $(seconds "$t0" "$t1") s, rank $(seconds "$t1" "$t2") s (wall)," \
        "src/mootopt $(cat "$1"/src/mootopt/*.py | wc -l) lines"
}

grid "$tmp/base" "$tmp/out-base" "$rev"
grid "$root" "$tmp/out-tree" "working tree"

cd "$tmp"
if diff -r out-base out-tree >/dev/null; then
    echo "every output file is identical to $rev's"
    exit 0
fi
echo "output files that differ from $rev's (out-base: $rev, out-tree: working tree):"
diff -rq out-base out-tree || true
python3 "$root/scripts/diff_results.py" out-base out-tree || true
exit 1
