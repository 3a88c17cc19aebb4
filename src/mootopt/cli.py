"""Command-line front end: `run` executes an experiment grid, `rank`
turns its results directory into report tables.

Outputs are deliberately timestamp-free and sorted, so rerunning either
command with the same inputs reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from . import __version__, engine, gp, report
from .data import ParseError, load_csv
from .warmstart import DEFAULT_KEY_ENV, MockSynthesizer, RemoteSynthesizer

ARM_ACQUIRES = tuple(a for a in engine.ALL_ACQUIRES if a != "baseline")


class ConfigError(ValueError):
    """Bad flags or unusable inputs; maps to exit code 2."""


def parse_arms(spec: str) -> tuple[tuple[str, str], ...]:
    """Treatment list syntax: comma-separated `start/acquire` items.

    `baseline` and `random` stand alone; every other arm is `llm/...` or
    `random/...` with an acquisition from the known set.
    """
    arms = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "baseline":
            arms.append(("baseline", "baseline"))
            continue
        if item == "random":
            arms.append(("random", "random"))
            continue
        if "/" not in item:
            raise ConfigError(
                f"treatment {item!r} is not start/acquire, 'random', or 'baseline'")
        start, acquire = (p.strip() for p in item.split("/", 1))
        if start not in ("random", "llm"):
            raise ConfigError(f"unknown start {start!r} in treatment {item!r}")
        if acquire not in ARM_ACQUIRES:
            raise ConfigError(f"unknown acquire {acquire!r} in treatment {item!r}")
        arms.append((start, acquire))
    for arm in arms:
        if arms.count(arm) > 1:
            raise ConfigError(f"treatment {format_arms((arm,))!r} is repeated")
    if not arms:
        raise ConfigError("empty treatment list")
    return tuple(arms)


def format_arms(arms: tuple[tuple[str, str], ...]) -> str:
    """The treatment-list spelling of `arms`; the inverse of parse_arms."""
    return ",".join(start if (start, acquire) in (("baseline", "baseline"),
                                                  ("random", "random"))
                    else f"{start}/{acquire}" for start, acquire in arms)


def collect_data_paths(specs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            found = sorted(p.glob("*.csv"))
            if not found:
                raise ConfigError(f"no .csv files under directory {p}")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise ConfigError(f"data path does not exist: {p}")
    return paths


def load_datasets(specs: list[str]):
    datasets = []
    seen = set()
    for path in collect_data_paths(specs):
        try:
            ds = load_csv(path)
        except (OSError, ParseError) as exc:
            raise ConfigError(f"cannot load {path}: {exc}") from exc
        if ds.name in seen:
            raise ConfigError(f"duplicate dataset name {ds.name!r} (from {path})")
        seen.add(ds.name)
        datasets.append(ds)
    return datasets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mootopt",
        description="Label-frugal multi-objective optimization on MOOT tables")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment grid")
    run.add_argument("--data", nargs="+", required=True,
                     help="MOOT csv files or directories of them")
    run.add_argument("--treatments", default=format_arms(engine.DEFAULT_ARMS),
                     help="comma list of start/acquire arms, plus 'random' "
                          "and 'baseline' (default: the full nine-arm grid)")
    run.add_argument("--budgets",
                     default=",".join(map(str, engine.DEFAULT_BUDGETS)),
                     help="comma list of total label budgets")
    run.add_argument("--repeats", type=int, default=engine.DEFAULT_REPEATS)
    run.add_argument("--seed", type=int, default=engine.GridSpec.base_seed)
    run.add_argument("--synth", choices=("mock", "remote"), default="mock")
    run.add_argument("--endpoint", help="chat completion URL (remote synth)")
    run.add_argument("--model", help="model identifier (remote synth)")
    run.add_argument("--key-env", default=DEFAULT_KEY_ENV, dest="key_env",
                     help="environment variable holding the API key")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--jobs", type=int, default=1)

    rank = sub.add_parser("rank", help="build report tables from run output")
    rank.add_argument("results", help="directory holding results.jsonl")
    rank.add_argument("--out", default=None,
                      help="report directory (default: the results dir)")
    return parser


def _parse_budgets(spec: str) -> tuple[int, ...]:
    try:
        budgets = tuple(int(b.strip()) for b in spec.split(",") if b.strip())
    except ValueError as exc:
        raise ConfigError(f"bad budget list {spec!r}") from exc
    if not budgets:
        raise ConfigError("empty budget list")
    for b in budgets:
        if budgets.count(b) > 1:
            raise ConfigError(f"budget {b} is repeated in {spec!r}")
    if any(b <= engine.B0 for b in budgets):
        raise ConfigError(
            f"every budget must exceed the warm size {engine.B0}; got {spec!r}")
    return budgets


def cmd_run(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {args.repeats}")
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    arms = parse_arms(args.treatments)
    budgets = _parse_budgets(args.budgets)
    datasets = load_datasets(args.data)
    if args.synth == "remote":
        if not args.endpoint or not args.model:
            raise ConfigError("remote synthesizer needs --endpoint and --model")
        try:
            synthesizer = RemoteSynthesizer(args.endpoint, args.model,
                                            key_env=args.key_env)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        synthesizer = MockSynthesizer()

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    grid = engine.GridSpec(arms=arms, budgets=budgets, repeats=args.repeats,
                           base_seed=args.seed)

    transcript: list[dict] = []
    lock = threading.Lock()

    def log(event: dict) -> None:
        with lock:
            transcript.append(event)

    failures: list[str] = []

    def on_error(ds, t, rep, exc) -> None:
        msg = (f"run failed: {ds.name} {t.start}/{t.acquire} "
               f"budget={t.budget} repeat={rep}: {exc}")
        with lock:
            failures.append(msg)
        print(msg, file=sys.stderr)

    results = engine.run_grid(datasets, grid, synthesizer=synthesizer,
                              jobs=args.jobs, log=log,
                              on_error=on_error)

    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r.to_record()) + "\n")

    transcript.sort(key=lambda e: (e.get("dataset", ""), e.get("start", ""),
                                   e.get("acquire", ""), e.get("budget", 0),
                                   e.get("repeat", 0), e.get("seq", 0)))
    with open(out_dir / "transcript.jsonl", "w", encoding="utf-8") as fh:
        for event in transcript:
            fh.write(json.dumps(event) + "\n")

    manifest = {
        "version": __version__,
        "config": {
            "treatments": args.treatments, "budgets": list(budgets),
            "repeats": args.repeats, "warm_size": engine.B0,
            "seed": args.seed, "synth": args.synth,
            "endpoint": args.endpoint, "model": args.model,
            "kappa": gp.KAPPA, "epsilon": gp.EPSILON,
            "jobs": args.jobs,
        },
        "seed_rule": "crc32('dataset|start|acquire|budget|repeat|seed')",
        "datasets": {},
        "failures": failures,
    }
    for ds in datasets:
        mean, lo, median, sd = engine.baseline_summary(ds)
        manifest["datasets"][ds.name] = {
            "rows": len(ds.rows), "x_cols": len(ds.x_cols),
            "y_cols": len(ds.y_cols), "dims": ds.dims,
            "chebyshev": {"mean": mean, "lo": lo, "median": median, "sd": sd},
        }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return 1 if failures else 0


def cmd_rank(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    if not (results_dir / "results.jsonl").is_file():
        raise ConfigError(f"no results.jsonl under {results_dir}")
    try:
        report.write_reports(results_dir, out_dir=args.out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_rank(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
