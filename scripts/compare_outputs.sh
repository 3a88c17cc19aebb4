#!/usr/bin/env bash
# Check that the working tree writes the same default-grid outputs as REV.
#
#     scripts/compare_outputs.sh REV
#
# Runs `mootopt run --data data --seed 1` and then `mootopt rank` twice:
# in a `git archive` of REV and in the working tree. Then diffs the two
# output directories with `diff -r`, prints each file that differs, and
# exits 1 if any does, 0 if all are identical. When they differ it also
# prints scripts/diff_results.py's summary of the changed records and
# rank tables; the summary does not affect the exit status.
set -euo pipefail

rev=${1:?usage: scripts/compare_outputs.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

grid() {  # grid TREE OUT: the default grid and its ranking, from TREE's source
    (cd "$1" && export PYTHONPATH=src \
        && python3 -m mootopt.cli run --data data --seed 1 --out "$2" >/dev/null \
        && python3 -m mootopt.cli rank "$2" >/dev/null)
}

grid "$tmp/base" "$tmp/out-base"
grid "$root" "$tmp/out-tree"

cd "$tmp"
if diff -r out-base out-tree >/dev/null; then
    echo "every output file is identical to $rev's"
    exit 0
fi
echo "output files that differ from $rev's (out-base: $rev, out-tree: working tree):"
diff -rq out-base out-tree || true
python3 "$root/scripts/diff_results.py" out-base out-tree || true
exit 1
