"""mootopt benchmark: one workload per invocation, run through the CLI.

    python3 perfbench/run.py --workload grid-tpe --seed 1 --seconds 30 --trace 0

Each grid is `cli.main(["run", ...])` followed by `cli.main(["rank", ...])`,
the calls the `mootopt` command makes, repeated for `--seconds`. The
seed becomes `mootopt run --seed`; the tables are always all of data/.

With `--trace 0` nothing is instrumented and the end-to-end metrics are
reported, as medians over the grids of the run. Times in the end-to-end
metrics are calibrated: each is scaled by how fast the machine ran a
fixed reference around it (the loop in calibrate.py for run and rank,
the imports in probe.py for set-up), and the raw figures are printed on
the `#` lines above the result. warm-remote's rate is the exception; see
`runs_per_s`. With `--trace 1` untraced and traced grids alternate; the
traced ones wrap every layer (see tracer.py) and give the per-layer
metrics, and the gap between the two kinds is the tracing overhead.

Every grid's outputs are checked; any failed check makes the final line
report `"correct": false`. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits 2 without a
result when the checkout lacks src/mootopt or data/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads as wl
from calibrate import REFERENCE_S, ReferenceLoop
from tracer import RUN_SPANS, Tracer, instrument

SETUP_TRIALS = 7
RANK_TRIALS = 4  # rank takes tens of ms, so each grid times it several times
LAYERS = ("cli", "data", "objective", "likelihood", "gp", "warmstart",
          "engine", "stats", "report")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "rank_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_ratio": ("ratio", "higher"),
    "warm_ok_ratio": ("ratio", "higher"),
    "full_budget_ratio": ("ratio", "higher"),
    "norm_best": ("ratio", "lower"),
}
PER_LAYER = {
    "data.load_s": ("s", "lower"),
    "data.fresh_s": ("s", "lower"),
    "data.fresh_calls": ("count", "lower"),
    "data.pool_s": ("s", "lower"),
    "data.pool_calls": ("count", "lower"),
    "objective.split_s": ("s", "lower"),
    "objective.split_calls": ("count", "lower"),
    "objective.chebyshev_calls": ("count", "lower"),
    "likelihood.fit_s": ("s", "lower"),
    "likelihood.acquire_s": ("s", "lower"),
    "likelihood.rows_scored": ("count", "lower"),
    "gp.fit_s": ("s", "lower"),
    "gp.fit_calls": ("count", "lower"),
    "gp.train_rows": ("count", "lower"),
    "gp.acquire_s": ("s", "lower"),
    "gp.rows_scored": ("count", "lower"),
    "gp.incumbent_s": ("s", "lower"),
    "warmstart.start_s": ("s", "lower"),
    "warmstart.prompt_s": ("s", "lower"),
    "warmstart.prompt_bytes": ("bytes", "lower"),
    "warmstart.parse_s": ("s", "lower"),
    "warmstart.map_s": ("s", "lower"),
    "warmstart.synth_s": ("s", "lower"),
    "warmstart.synth_ms_p50": ("ms", "lower"),
    "warmstart.synth_ms_p99": ("ms", "lower"),
    "warmstart.fallbacks": ("count", "lower"),
    "warmstart.mapped_ratio": ("ratio", "higher"),
    "engine.runs": ("count", "higher"),
    "engine.label_steps": ("count", "lower"),
    "engine.run_ms_p50": ("ms", "lower"),
    "engine.run_ms_p99": ("ms", "lower"),
    "engine.loop_self_s": ("s", "lower"),
    "engine.worker_busy_ratio": ("ratio", "higher"),
    "cli.write_s": ("s", "lower"),
    "cli.transcript_bytes": ("bytes", "lower"),
    "cli.results_bytes": ("bytes", "lower"),
    "stats.scott_knott_s": ("s", "lower"),
    "stats.bootstrap_s": ("s", "lower"),
    "stats.bootstrap_calls": ("count", "lower"),
    "stats.cliffs_calls": ("count", "lower"),
    "report.self_s": ("s", "lower"),
    "trace.runs_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
REPORT_FILES = ("freq_low.csv", "freq_medium.csv", "freq_high.csv",
                "evals_needed.csv", "improvement_curve.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor taking a time measured between two reference passes, which
    took `before` and `after` seconds, to `reference` time.

    The machine's speed drifts within one benchmark run, and the passes on
    either side of a step track that drift better than the median of all
    the run's passes.
    """
    return 2 * reference / (before + after)


def probe_seconds(arg: str) -> float:
    done = subprocess.run([sys.executable, str(wl.HERE / "probe.py"), arg],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_trials(w: wl.Workload) -> tuple[list[float], list[float]]:
    """Raw seconds of each fresh-interpreter set-up (see probe.py), and
    of the reference set-up trials before, between and after them.

    Set-up is mostly importing numpy and scipy, work the reference loop
    does not resemble, so set-up is calibrated by reference set-ups.
    """
    trials, passes = [], [probe_seconds("--reference")]
    for _ in range(SETUP_TRIALS):
        trials.append(probe_seconds(w.name))
        passes.append(probe_seconds("--reference"))
    return trials, passes


def runs_per_s(grids: list[dict], w: wl.Workload) -> float:
    """Median records per second of `run`: calibrated, except on remote
    workloads.

    Most of a remote grid's time is the stub's fixed reply delay, which a
    busy machine does not stretch; scaling all of it by the reference
    loop would over-correct, so the raw rate is used there.
    """
    return statistics.median(g["runs_per_s"] if w.remote
                             else g["runs_per_s"] / g["scale"] for g in grids)


class Grid:
    """One `run` + `rank` of the workload into a fresh output directory."""

    def __init__(self, cli, w: wl.Workload, seed: int, files: list[Path],
                 out: Path, port: int | None):
        self.cli = cli
        self.out = out
        self.run_argv = wl.run_argv(w, seed, files, out, port)
        self.expected = wl.expected_cells(w, files)

    def once(self, loop: ReferenceLoop, before: float,
             rank_trials: int) -> dict:
        """Run, then rank `rank_trials` times, with a pass of the reference
        loop after each step.

        `before` is the pass just before the run. Each step's `scale`
        comes from the passes on either side of it.
        """
        if self.out.exists():
            shutil.rmtree(self.out)
        t0 = time.perf_counter()
        rc_run = self.cli.main(self.run_argv)
        run_s = time.perf_counter() - t0
        passes = [before, loop.seconds()]
        rc_rank, rank_s = 0, []
        for _ in range(rank_trials):
            t0 = time.perf_counter()
            rc_rank = max(rc_rank, self.cli.main(["rank", str(self.out)]))
            rank_s.append(time.perf_counter() - t0)
            passes.append(loop.seconds())
        g = {"run_s": run_s, "scale": scale(passes[0], passes[1]),
             "rank": [(t, scale(a, b))
                      for t, a, b in zip(rank_s, passes[1:], passes[2:])],
             "passes": passes[1:]}
        g.update(self.check(rc_run, rc_rank))
        g["runs_per_s"] = len(g["records"]) / run_s
        return g

    def check(self, rc_run: int, rc_rank: int) -> dict:
        """Failures, records and problems found in the grid's outputs."""
        problems = []
        if rc_run != 0 or rc_rank != 0:
            problems.append(f"exit codes run={rc_run} rank={rc_rank}")
        results = self.out / "results.jsonl"
        try:
            records = [json.loads(line) for line in
                       results.read_text(encoding="utf-8").splitlines()]
            manifest = json.loads((self.out / "manifest.json").read_text("utf-8"))
        except (OSError, ValueError) as exc:
            return {"records": [], "sha256": None, "failed": self.expected,
                    "problems": problems + [f"run wrote no usable output: {exc}"]}
        # a failed run is both listed in the manifest and missing a record
        failed = max(len(manifest["failures"]), self.expected - len(records))
        if len(records) != self.expected:
            problems.append(f"{len(records)} records, expected {self.expected}")
        over = [r for r in records if r["evals"] > r["budget"]]
        if over:
            problems.append(f"{len(over)} records label more than their budget")
        names = {re.sub(r"[^A-Za-z0-9._-]+", "_", r["dataset"]) for r in records}
        wanted = [f"rank_{n}{ext}" for n in sorted(names)
                  for ext in (".txt", ".csv")] + list(REPORT_FILES)
        missing = [f for f in wanted if not (self.out / f).is_file()]
        if missing:
            problems.append(f"rank did not write {missing}")
        return {"records": records, "sha256": sha256(results),
                "failed": failed, "problems": problems}


def norm_best(curve: Path) -> float:
    """Mean normalized improvement over every row of the curve.

    Every budget counts, not only the largest: with one seed's draws the
    mean at the largest budget alone swings by a third between seeds.
    """
    rows = curve.read_text(encoding="utf-8").splitlines()[1:]
    return statistics.fmean(float(line.rsplit(",", 1)[1]) for line in rows)


def outcome_metrics(records: list[dict], out: Path) -> dict:
    warm = [r for r in records if r["start"] == "llm"]
    active = [r for r in records if r["acquire"] != "baseline"]
    return {
        "warm_ok_ratio": (1.0 - sum(r["fallback"] for r in warm) / len(warm)
                          if warm else 1.0),
        "full_budget_ratio": 1.0 - (sum(r["evals"] < r["budget"] for r in active)
                                    / len(active)),
        "norm_best": norm_best(out / "improvement_curve.csv"),
    }


def layer_metrics(t: Tracer, out: Path, jobs: int) -> dict:
    """Per-layer totals of one traced grid (percentiles are pooled later)."""
    c = t.counts()
    grid_s = t.total("engine.run_grid")
    synthetic = c["warmstart.synthetic_rows"]
    return {
        "data.load_s": t.total("data.load_csv"),
        "data.fresh_s": t.total("data.fresh"),
        "data.fresh_calls": t.calls("data.fresh"),
        "data.pool_s": t.total("data.labeled_rows", "data.unlabeled_rows"),
        "data.pool_calls": t.calls("data.labeled_rows", "data.unlabeled_rows"),
        "objective.split_s": t.total("objective.split"),
        "objective.split_calls": t.calls("objective.split"),
        "objective.chebyshev_calls": c["objective.chebyshev"],
        "likelihood.fit_s": t.total("likelihood.fit"),
        "likelihood.acquire_s": t.total("likelihood.acquire_tpe"),
        "likelihood.rows_scored": c["likelihood.rows_scored"],
        "gp.fit_s": t.total("gp.fit_gp"),
        "gp.fit_calls": t.calls("gp.fit_gp"),
        "gp.train_rows": c["gp.train_rows"],
        "gp.acquire_s": t.total("gp.acquire_gp"),
        "gp.rows_scored": c["gp.rows_scored"],
        "gp.incumbent_s": t.total("gp.incumbent"),
        "warmstart.start_s": t.total("warmstart.warm_start"),
        "warmstart.prompt_s": t.total("warmstart.build_prompt"),
        "warmstart.prompt_bytes": c["warmstart.prompt_bytes"],
        "warmstart.parse_s": t.total("warmstart.parse_response"),
        "warmstart.map_s": t.total("warmstart.map_to_pool"),
        "warmstart.synth_s": t.total("warmstart.synth"),
        "warmstart.fallbacks": c["warmstart.fallbacks"],
        "warmstart.mapped_ratio": (c["warmstart.mapped_rows"] / synthetic
                                   if synthetic else 0.0),
        "engine.runs": t.calls(*RUN_SPANS),
        "engine.label_steps": t.calls("likelihood.acquire_tpe", "gp.acquire_gp"),
        "engine.loop_self_s": t.self_time("engine.run_active"),
        "engine.worker_busy_ratio": t.total(*RUN_SPANS) / (grid_s * jobs),
        "cli.write_s": (t.total("cli.cmd_run") - t.total("cli.load_datasets")
                        - grid_s),
        "cli.transcript_bytes": (out / "transcript.jsonl").stat().st_size,
        "cli.results_bytes": (out / "results.jsonl").stat().st_size,
        "stats.scott_knott_s": t.total("stats.scott_knott"),
        "stats.bootstrap_s": t.total("stats.bootstrap_same"),
        "stats.bootstrap_calls": t.calls("stats.bootstrap_same"),
        "stats.cliffs_calls": t.calls("stats.cliffs_delta"),
        "report.self_s": t.self_time("report.write_reports"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository. `--git-dir` keeps git from searching the directories
    above the checkout for some other repository."""
    git = wl.ROOT / ".git"
    if not git.exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(git), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(w: wl.Workload, seed: int, files: list[Path], argv: list[str],
               table: dict) -> dict:
    import numpy
    import scipy
    shown = [a.replace(str(wl.ROOT) + os.sep, "") for a in argv]
    return {
        "workload": w.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "data_sha256": {p.name: sha256(p) for p in files},
        "git_commit": git_commit(),
        "command": "PYTHONPATH=src python3 -m mootopt.cli " + " ".join(shown),
        "metrics": {k: {"unit": unit, "better": better}
                    for k, (unit, better) in table.items()},
    }


def measure(cli, mods: dict, w: wl.Workload, seed: int, seconds: float,
            trace: bool, files: list[Path], port: int | None,
            loop: ReferenceLoop) -> tuple:
    """Run grids for `seconds`: a grid starts only when one more grid of
    the mean length so far still ends in time, once there is an untraced
    grid and, when tracing, a traced one.

    Returns the Grid, the untraced and the traced grid outcomes, the
    synthesizer-call and per-run durations pooled over the traced grids,
    and the times of the reference loop's passes. Traced grids rank once,
    so their stats spans cover one `rank`. Only the first untraced grid
    keeps its records; the outcome metrics come from it, and the other
    grids' records are checked, then dropped.
    """
    out = wl.OUT / w.name
    grid = Grid(cli, w, seed, files, out / "grid", port)
    plain, traced, last = [], [], None
    samples = {"synth": [], "run": [], "spans": []}
    passes = [loop.seconds()]
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        grids = len(plain) + len(traced)
        if (plain and (traced or not trace)
                and now + (now - start) / grids > start + seconds):
            break
        tracer = None
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            instrument(tracer, mods)
        try:
            g = grid.once(loop, passes[-1],
                          RANK_TRIALS if tracer is None else 1)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes += g["passes"]
        if plain or tracer is not None:
            del g["records"]
        if tracer is None:
            plain.append(g)
            continue
        g["layers"] = layer_metrics(tracer, grid.out, w.jobs)
        traced.append(g)
        samples["synth"] += tracer.durations("warmstart.synth")
        samples["run"] += [d for n in RUN_SPANS for d in tracer.durations(n)]
        samples["spans"].append(len(tracer.spans))
        last = tracer
    if last is not None:
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, trace_id, parent, name, t0, t1 in last.spans:
                fh.write(json.dumps({"id": sid, "trace": trace_id,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
    return grid, plain, traced, samples, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    try:
        files = wl.data_files()
        wl.import_mootopt()
    except wl.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mods = {name: importlib.import_module(f"mootopt.{name}") for name in LAYERS}
    out = wl.OUT / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if w.remote:
        wl.remote_env()

    setup, setup_passes = ([], []) if args.trace else setup_trials(w)
    loop = ReferenceLoop()
    stub, port = wl.start_stub() if w.remote else (None, None)
    try:
        grid, plain, traced, samples, passes = measure(
            mods["cli"], mods, w, args.seed, args.seconds, bool(args.trace),
            files, port, loop)
    finally:
        if stub is not None:
            wl.stop_stub(stub)
        loop.close()

    grids = plain + traced
    problems = [p for g in grids for p in g["problems"]]
    hashes = {g["sha256"] for g in grids}
    if len(hashes) != 1:
        problems.append(f"results.jsonl differs between grids: {sorted(hashes)}")
    attempted = grid.expected * len(grids)
    failed = sum(g["failed"] for g in grids)
    plain_rate = runs_per_s(plain, w)

    if args.trace:
        layers = [g["layers"] for g in traced]
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        traced_rate = runs_per_s(traced, w)
        metrics.update({
            "warmstart.synth_ms_p50": 1e3 * percentile(samples["synth"], 0.50),
            "warmstart.synth_ms_p99": 1e3 * percentile(samples["synth"], 0.99),
            "engine.run_ms_p50": 1e3 * percentile(samples["run"], 0.50),
            "engine.run_ms_p99": 1e3 * percentile(samples["run"], 0.99),
            "trace.runs_per_s": traced_rate,
            "trace.overhead_ratio": plain_rate / traced_rate,
        })
        table = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(
                t * scale(a, b, probe.REFERENCE_S)
                for t, a, b in zip(setup, setup_passes, setup_passes[1:])),
            "runs_per_s": plain_rate,
            "rank_s": statistics.median(t * k for g in plain
                                        for t, k in g["rank"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "completed_ratio": 1.0 - failed / attempted,
            **outcome_metrics(plain[0]["records"], grid.out),
        }
        table = END_TO_END
    metrics = {k: metrics[k] for k in table}

    prov = provenance(w, args.seed, files, grid.run_argv, table)
    (out / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    print(f"# {w.name} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced grids, "
          f"{grid.expected} records each")
    print("# per grid, raw runs_per_s then raw rank_s: " + "; ".join(
        f"{g['runs_per_s']:.4g} " + " ".join(f"{t:.3g}" for t, _ in g["rank"])
        for g in grids))
    print("# reference loop passes, s: " + " ".join(f"{t:.3g}" for t in passes))
    if setup:
        print("# raw set-up trials, s: " + " ".join(f"{t:.3g}" for t in setup))
        print("# reference set-up trials, s: "
              + " ".join(f"{t:.3g}" for t in setup_passes))
    if traced:
        print(f"# traced samples: {len(samples['synth'])} synthesizer calls, "
              f"{len(samples['run'])} runs; spans per traced grid "
              f"{samples['spans']}")
    print(f"# results.jsonl sha256 {hashes.pop() if len(hashes) == 1 else 'varies'}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for problem in problems:
        print(f"# check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {table[name][0]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
