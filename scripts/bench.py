#!/usr/bin/env python3
"""Paired benchmark verdicts and benchmark files, from perfbench's own output.

    python3 scripts/bench.py --pair REV [--pairs N] [--workload W]... \\
        [--seconds S] [--seed K] [--out FILE]
    python3 scripts/bench.py --out FILE [--workload W]... [--seconds S] [--seed K]

Each side of a measurement runs in a clean tree of its own. The working
tree's is a plain walk of it that skips SKIP, so it holds every other
file, whether git tracks it or not, and no stale `__pycache__`. REV's is
a `git archive` of REV with the working tree's perfbench/ and
BENCHMARK.json copied in, so the two sides run the same benchmark code.
Each run is `perfbench/run.py --workload W --seed K --seconds S --trace 0`
in a fresh interpreter.

With `--pair`, REV (the parent) and the working tree (the change)
alternate, N pairs per workload, the parent first in even-numbered pairs.
For each end-to-end metric BENCHMARK.json lists, the report gives each
side's median and quartiles, the median of the per-pair change/parent
ratios, and the count of pairs the change won in the metric's own
direction; a tie counts for neither side. It marks a metric `unresolved`
when the parent's interquartile range exceeds the metric's `bound` times
the parent's median and not every change run beats every parent run:
such a metric's pairs cannot tell the change from the parent's own
spread. Without `--pair`, each workload runs once in the working tree.

`--out` also writes, as JSON, every run's final perfbench line and results
sha256, each side's provenance, and the report. The script imports nothing from
src/: perfbench runs the package in its own process.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-tpe", "grid-gp", "warm-remote")
# What the working tree's copy leaves out: git's store, bytecode, and what
# perfbench, pytest and Hypothesis write into the tree.
SKIP = (".git", "__pycache__", ".perfbench_out", ".pytest_cache", ".hypothesis")


def end_to_end() -> dict[str, dict]:
    """Each end-to-end metric of BENCHMARK.json, by name: its `better`
    direction and its `bound`, among others."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def export(rev: str | None, dest: Path) -> Path:
    """A clean tree at `dest`: with `rev` None, the working tree by a plain
    walk that skips SKIP; else a `git archive` of `rev` with the working
    tree's perfbench/ and BENCHMARK.json in it."""
    if rev is None:
        shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*SKIP))
        return dest
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def parse(stdout: str) -> dict:
    """One perfbench run's result: its final JSON line, as `values` per
    metric plus `correct`, and its results sha256 and provenance."""
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    run = {"correct": final["correct"], "attempted": final["attempted"],
           "failed": final["failed"],
           "values": {k: m["value"] for k, m in final["metrics"].items()},
           "sha256": None, "provenance": None}
    for line in lines:
        if line.startswith("# results.jsonl sha256 "):
            run["sha256"] = line.split()[-1]
        elif line.startswith("# provenance "):
            run["provenance"] = json.loads(line[len("# provenance "):])
    return run


def measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: perfbench/run.py --workload {workload} exited "
                 f"{done.returncode} in {tree.name}:\n{done.stderr[-2000:]}")
    return parse(done.stdout)


def stored(runs: list[dict]) -> dict:
    """One side's runs for the `--out` file: the provenance once (every
    run of a side shares it), then each run without it."""
    return {"provenance": runs[0]["provenance"],
            "runs": [{k: v for k, v in run.items() if k != "provenance"}
                     for run in runs]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict],
              metrics: dict[str, dict]) -> dict:
    """Per metric: each side's quartiles, the median per-pair ratio, the
    pairs the change won, and whether the verdict is unresolved: the
    parent's interquartile range is wider than `bound` times its median,
    and some change run does not beat every parent run. `parent[i]` and
    `change[i]` form pair i."""
    report = {}
    for name, metric in metrics.items():
        pairs = [(p["values"][name], c["values"][name])
                 for p, c in zip(parent, change)]
        ratios = [c / p for p, c in pairs if p]
        sign = 1 if metric["better"] == "higher" else -1
        before, after = [p for p, _ in pairs], [c for _, c in pairs]
        q1, q2, q3 = quartiles(before)
        report[name] = {
            "better": metric["better"],
            "parent": (q1, q2, q3),
            "change": quartiles(after),
            "ratio": statistics.median(ratios) if ratios else None,
            "won": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs": len(pairs),
            "unresolved": q3 - q1 > metric["bound"] * abs(q2) and not all(
                sign * (c - p) > 0 for p in before for c in after),
        }
    return report


def render(workload: str, report: dict, parent: list[dict],
           change: list[dict]) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [f"{workload}: {len(parent)} pairs, parent -> change; "
             "median [quartiles], median ratio, pairs won; unresolved: the "
             "parent spreads wider than the bound and the sides overlap",
             f"{'metric':18s} {'better':6s} {'parent':>34s} {'change':>34s}"
             f" {'ratio':>7s} won"]
    for name, r in report.items():
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.4f}"
        lines.append(f"{name:18s} {r['better']:6s} {side(r['parent']):>34s} "
                     f"{side(r['change']):>34s} {ratio:>7s} "
                     f"{r['won']}/{r['pairs']}"
                     + ("  unresolved" if r["unresolved"] else ""))
    for label, runs in (("parent", parent), ("change", change)):
        hashes = sorted({str(run["sha256"]) for run in runs})
        correct = sum(run["correct"] is True for run in runs)
        lines.append(f"{label}: results sha256 {', '.join(hashes)}; "
                     f"correct in {correct} of {len(runs)} runs")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", metavar="REV",
                        help="pair the working tree against REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the runs as JSON here")
    args = parser.parse_args(argv)
    if args.pair is None and args.out is None:
        parser.error("give --pair REV, --out FILE or both")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload or list(WORKLOADS)
    metrics = end_to_end()
    if args.pair is not None:  # the file names the commit, not a ref to it
        args.pair = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", args.pair + "^{commit}"],
            capture_output=True, text=True, check=True).stdout.strip()
    result = {"seed": args.seed, "seconds": args.seconds, "parent": args.pair,
              "workloads": {}}
    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        change_tree = export(None, scratch / "change")
        if args.pair is None:
            for w in workloads:
                run = measure(change_tree, w, args.seed, args.seconds)
                result["workloads"][w] = {"change": stored([run])}
                print(f"{w}: " + json.dumps(run["values"]), flush=True)
        else:
            parent_tree = export(args.pair, scratch / "parent")
            for w in workloads:
                runs: dict[str, list[dict]] = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                    for label in order:
                        tree = parent_tree if label == "parent" else change_tree
                        runs[label].append(measure(tree, w, args.seed, args.seconds))
                    print(f"# {w} pair {i + 1}: runs_per_s parent "
                          f"{runs['parent'][-1]['values']['runs_per_s']:.6g}, change "
                          f"{runs['change'][-1]['values']['runs_per_s']:.6g}",
                          flush=True)
                report = summarize(runs["parent"], runs["change"], metrics)
                result["workloads"][w] = {
                    **{label: stored(side) for label, side in runs.items()},
                    "report": report}
                print(render(w, report, runs["parent"], runs["change"]), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
