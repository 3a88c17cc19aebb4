#!/usr/bin/env python3
"""Run each one-line mutant of src/mootopt against tier-1 and the default grid.

    python3 scripts/mutate.py > MUTANTS.md

For each (file, old, new) in MUTANTS, a fresh copy of the working tree
(`bench.export`'s plain walk, without `.git`) gets `old` replaced by
`new`, once. In that copy tier-1 runs as
`pytest -q -x --hypothesis-seed=0 --continue-on-collection-errors`, less
the DESELECTED tests, which check a text against the unmutated tree:
this list (`old` is gone from a mutant) and the README's constants table
(a constant's row would fail with or without a test of its behaviour).
The mutant is killed when pytest exits non-zero, and the report names
the first failing test. Then `mootopt run --data data --seed 1` and
`mootopt rank` run there, and the report counts the output files whose
bytes differ from those of an unmutated copy (a file on one side only
counts too).

The report is markdown on stdout, one row per mutant in MUTANTS order;
progress goes to stderr. It holds no timings, so a rerun on the same
tree writes the same bytes. A mutant whose `old` does not occur exactly
once in its file stops the script before anything runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import ROOT, export

DESELECTED = ("tests/test_scripts.py::test_every_mutant_replaces_text_that_occurs_once",
              "tests/test_cli.py::test_readme_constants_table_gives_each_constants_value")

# (file, old, new): each `old` occurs exactly once in its file.
MUTANTS = (
    ("src/mootopt/stats.py", "DELTA_SMALL = 0.147", "DELTA_SMALL = 0.2"),
    ("src/mootopt/stats.py", "N_BOOT = 512", "N_BOOT = 256"),
    ("src/mootopt/likelihood.py", "FLOOR_MIN = 1e-6", "FLOOR_MIN = 1e-3"),
    ("src/mootopt/gp.py", "SIGNAL_VAR_FLOOR = 1e-12", "SIGNAL_VAR_FLOOR = 1e-3"),
    ("src/mootopt/gp.py", "LENGTH_SCALE_GRID = (0.1, 0.3, 1.0, 3.0)",
     "LENGTH_SCALE_GRID = (0.1, 0.3, 1.0, 10.0)"),
    ("src/mootopt/likelihood.py", "TIE_REL = 1e-12", "TIE_REL = 1e-6"),
    ("src/mootopt/gp.py", "EPSILON = 0.01", "EPSILON = 0.1"),
    ("src/mootopt/engine.py", "if b <= B0:", "if b < B0:"),
    ("src/mootopt/warmstart.py", "len(rows[claim]) < 2", "len(rows[claim]) < 3"),
    ("src/mootopt/objective.py", "int(math.sqrt(n) + 0.5)", "int(math.sqrt(n))"),
    ("src/mootopt/warmstart.py", "for f in (0.1, 0.2):", "for f in (0.1, 0.3):"),
    ("src/mootopt/data.py", 'MISSING = "?"', 'MISSING = "-"'),
)


def check() -> None:
    """Raise ValueError unless each mutant's `old` occurs once in its file."""
    for file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            raise ValueError(f"{file}: {old!r} occurs {count} times, not once")


def run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def tier1(tree: Path) -> tuple[str, str]:
    """('survived', ''), or ('killed', the first failing test)."""
    done = run(tree, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "--continue-on-collection-errors",
               *(arg for test in DESELECTED for arg in ("--deselect", test)))
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", f"`{failed[0]}`" if failed else f"exit {done.returncode}"


def grid(tree: Path, out: Path) -> dict[str, bytes]:
    """The default grid's output files at seed 1, by name, after `rank`."""
    ran = run(tree, "-m", "mootopt.cli", "run", "--data", "data", "--seed", "1",
              "--out", str(out))
    if ran.returncode in (0, 1):  # 1: some runs failed, and the files say which
        run(tree, "-m", "mootopt.cli", "rank", str(out))
    return {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}


def main() -> int:
    check()
    print("# One-line mutants\n\n`python3 scripts/mutate.py > MUTANTS.md`: each mutant "
          "alone, against tier-1 and the default grid at seed 1.\n")
    print("| file | old | new | tier-1 | first failing test | default-grid files changed (seed 1) |")
    print("| --- | --- | --- | --- | --- | ---: |")
    with tempfile.TemporaryDirectory() as tmp:
        base = grid(export(None, Path(tmp, "base")), Path(tmp, "out-base"))
        for k, (file, old, new) in enumerate(MUTANTS):
            print(f"mutant {k + 1}/{len(MUTANTS)}: {file} {old!r} -> {new!r}",
                  file=sys.stderr)
            tree = export(None, Path(tmp, f"mutant-{k}"))
            path = tree / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new),
                            encoding="utf-8")
            verdict, test = tier1(tree)
            outs = grid(tree, Path(tmp, f"out-{k}"))
            changed = sum(base.get(name) != outs.get(name) for name in base.keys() | outs.keys())
            print(f"| `{file}` | `{old}` | `{new}` | {verdict} | {test} | {changed} |",
                  flush=True)
            shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
