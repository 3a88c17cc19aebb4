"""Command-line front end: `run` executes an experiment grid, `rank`
turns its results directory into report tables.

Outputs are deliberately timestamp-free and sorted, so rerunning either
command with the same inputs reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, engine, gp, report
from .data import ParseError, load_csv
from .warmstart import DEFAULT_KEY_ENV, MockSynthesizer, RemoteSynthesizer


class ConfigError(ValueError):
    """Bad flags or unusable inputs; maps to exit code 2."""


def _spelling(arm: tuple[str, str]) -> str:
    """`start/acquire`, or one word for an arm whose start is its
    acquisition (`random`, `baseline`)."""
    start, acquire = arm
    return start if start == acquire else f"{start}/{acquire}"


# Every treatment spelling and its arm; `random/random` also means `random`.
SPELLINGS = {**{_spelling(arm): arm for arm in engine.ARMS},
             "random/random": ("random", "random")}


def parse_arms(spec: str) -> tuple[tuple[str, str], ...]:
    """Treatment list syntax: comma-separated items from SPELLINGS, with
    spaces allowed around each item and its `/`. GridSpec checks the list."""
    arms = []
    for item in spec.split(","):
        word = "/".join(part.strip() for part in item.split("/"))
        if not word:
            continue
        if word not in SPELLINGS:
            raise ConfigError(f"unknown treatment {item.strip()!r}; known: "
                              + ", ".join(SPELLINGS))
        arms.append(SPELLINGS[word])
    return tuple(arms)


def format_arms(arms: tuple[tuple[str, str], ...]) -> str:
    """The treatment-list spelling of `arms`; the inverse of parse_arms."""
    return ",".join(map(_spelling, arms))


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
    """Every table the specs name. Two tables may not share a name, nor
    a rank file name: `rank` would write one over the other."""
    datasets = []
    source: dict[str, Path] = {}
    for path in collect_data_paths(specs):
        try:
            ds = load_csv(path)
        except (OSError, ParseError) as exc:
            raise ConfigError(f"cannot load {path}: {exc}") from exc
        if ds.name in source:
            raise ConfigError(f"duplicate dataset name {ds.name!r} (from {path})")
        source[ds.name] = path
        datasets.append(ds)
    clash = report.clashing_names(source)
    if clash:
        a, b = clash
        raise ConfigError(
            f"{source[a]} and {source[b]} would both write "
            f"{report.rank_stem(a)}.txt and .csv (datasets {a!r} and {b!r})")
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
                          "and 'baseline' (default: the full nine-arm grid); "
                          "an unknown one is refused with every known spelling")
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
    run.add_argument("--jobs", type=int, default=1,
                     help="threads for synthesizer requests (caps requests in flight); "
                          "everything else runs on the calling thread")

    rank = sub.add_parser("rank", help="build report tables from run output")
    rank.add_argument("results", help="directory holding results.jsonl")
    rank.add_argument("--out", default=None,
                      help="report directory (default: the results dir)")
    return parser


def _parse_budgets(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(b.strip()) for b in spec.split(",") if b.strip())
    except ValueError as exc:
        raise ConfigError(f"bad budget list {spec!r}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    try:  # a ConfigError from the parsers keeps its message
        grid = engine.GridSpec(parse_arms(args.treatments),
                               _parse_budgets(args.budgets), args.repeats,
                               args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    datasets = load_datasets(args.data)
    if args.synth == "remote":
        if not args.endpoint or not args.model:
            raise ConfigError("remote synthesizer needs --endpoint and --model")
        try:
            synthesizer = RemoteSynthesizer(args.endpoint, args.model,
                                            key_env=args.key_env)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.endpoint or args.model:
        raise ConfigError("--endpoint and --model need --synth remote")
    else:
        synthesizer = MockSynthesizer()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid_out = engine.run_grid(datasets, grid, synthesizer=synthesizer,
                               jobs=args.jobs)
    for ds in datasets:
        if ds.name in grid_out.skipped:
            print(f"note: {ds.name} has {len(ds.rows)} rows; budgets "
                  f"{','.join(map(str, grid_out.skipped[ds.name]))} are skipped",
                  file=sys.stderr)
    for msg in grid_out.failures:
        print(msg, file=sys.stderr)

    for name, items in (("results.jsonl", grid_out.records),
                        ("transcript.jsonl", grid_out.events)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(item) + "\n" for item in items)

    manifest = {
        "version": __version__,
        "config": {
            "treatments": args.treatments, "budgets": list(grid.budgets),
            "repeats": args.repeats, "warm_size": engine.B0,
            "seed": args.seed, "synth": args.synth,
            "endpoint": args.endpoint, "model": args.model,
            "kappa": gp.KAPPA, "epsilon": gp.EPSILON,
            "jobs": args.jobs,
        },
        "seed_rule": "crc32('dataset|start|acquire|repeat|seed')",
        "datasets": {},
        "failures": grid_out.failures,
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

    return 1 if grid_out.failures else 0


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
    except (ConfigError, OSError) as exc:  # OSError: a path it cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
