#!/usr/bin/env python3
"""Summarize how two results directories differ.

    python3 scripts/diff_results.py A B

A and B are `mootopt run --out` directories, ranked or not. For each
(dataset, start/acquire) arm it prints the records whose `best` or
`evals` changed from A to B, with counts of how many got better (a lower
`best`) and worse, then, for each `rank_<dataset>.csv` present in both,
the cells whose Scott-Knott rank moved. Records present on one side only
are counted. It only prints: the exit status is 0 whatever differs, and
2 when a results.jsonl is missing.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import defaultdict
from pathlib import Path


def records(out: Path) -> dict[tuple, dict]:
    """results.jsonl keyed by (dataset, start, acquire, budget, repeat)."""
    with open(out / "results.jsonl", encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    return {(r["dataset"], r["start"], r["acquire"], r["budget"], r["repeat"]): r
            for r in recs}


def ranks(path: Path) -> dict[tuple, int]:
    """A rank table's rank per (start, acquire, budget) cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(row["start"], row["acquire"], int(row["budget"])): int(row["rank"])
                for row in csv.DictReader(fh)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: scripts/diff_results.py A B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    try:
        old, new = records(a), records(b)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    changed = defaultdict(list)
    for key in sorted(old.keys() & new.keys()):
        ra, rb = old[key], new[key]
        if (ra["best"], ra["evals"]) != (rb["best"], rb["evals"]):
            changed[key[:3]].append((key[3], key[4], ra, rb))
    n = sum(len(v) for v in changed.values())
    print(f"results: {len(old)} records in {a}, {len(new)} in {b}; "
          f"{n} changed, {len(old.keys() - new.keys())} only in {a}, "
          f"{len(new.keys() - old.keys())} only in {b}")
    for (dataset, start, acquire), cells in changed.items():
        better = sum(rb["best"] < ra["best"] for _, _, ra, rb in cells)
        worse = sum(rb["best"] > ra["best"] for _, _, ra, rb in cells)
        print(f"  {dataset} {start}/{acquire}: {len(cells)} changed, "
              f"{better} better, {worse} worse")
        for budget, repeat, ra, rb in cells:
            print(f"    budget {budget} repeat {repeat}: best {ra['best']!r} -> "
                  f"{rb['best']!r}, evals {ra['evals']} -> {rb['evals']}")
    moved_tables = 0
    for path in sorted(a.glob("rank_*.csv")):
        if not (b / path.name).exists():
            continue
        ra, rb = ranks(path), ranks(b / path.name)
        moved = [(cell, ra[cell], rb[cell]) for cell in sorted(ra.keys() & rb.keys())
                 if ra[cell] != rb[cell]]
        if moved:
            moved_tables += 1
            print(f"  {path.name}: " + ", ".join(
                f"{start}/{acquire}@{budget} {r0} -> {r1}"
                for (start, acquire, budget), r0, r1 in moved))
    print(f"rank tables with moved ranks: {moved_tables}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
