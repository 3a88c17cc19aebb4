"""Report generation over a directory of run records.

Everything here is a pure function of the results file plus the manifest
written alongside it, so regenerating reports is always safe and always
byte-identical. One rank table per dataset, one rank-frequency table per
dimensionality stratum, an evaluations-needed summary, the budget
versus normalized-improvement series, and per-arm run outcomes.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Optional

from .stats import (FreqRow, RankTable, Sample, frequency_csv,
                    rank_frequencies, rank_table_csv, render_rank_table,
                    scott_knott)

STRATA = ("low", "medium", "high")


def load_results(path: Path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def samples_by_dataset(records: list[dict]) -> dict[str, list[Sample]]:
    """Group run records into per-dataset samples keyed (start, acquire, budget)."""
    grouped: dict[str, dict[tuple, list[float]]] = {}
    for rec in records:
        key = (rec["start"], rec["acquire"], rec["budget"])
        grouped.setdefault(rec["dataset"], {}).setdefault(key, []).append(
            float(rec["best"]))
    return {ds: [Sample(label=key, values=vals)
                 for key, vals in sorted(by_key.items())]
            for ds, by_key in sorted(grouped.items())}


def dataset_rank_tables(records: list[dict]) -> dict[str, RankTable]:
    return {ds: scott_knott(samples)
            for ds, samples in samples_by_dataset(records).items()}


def stratum_frequencies(tables: dict[str, RankTable],
                        dims_of: dict[str, str]) -> dict[str, list[FreqRow]]:
    """Rank-frequency rows per dimensionality stratum (may be empty)."""
    out: dict[str, list[FreqRow]] = {}
    for stratum in STRATA:
        members = [tables[ds] for ds in sorted(tables)
                   if dims_of.get(ds) == stratum]
        out[stratum] = rank_frequencies(members) if members else []
    return out


def evals_needed_csv(tables: dict[str, RankTable]) -> str:
    """Average budget at which each treatment pair reached each rank.

    Within one dataset a pair may hit the same rank at several budgets;
    the smallest such budget counts (fewest evaluations needed), and the
    average runs over the datasets where the pair reached that rank.
    """
    budgets: dict[tuple[str, str], dict[int, list[int]]] = {}
    max_rank = 0
    for table in tables.values():
        per_pair: dict[tuple[str, str], dict[int, int]] = {}
        for group in table.groups:
            max_rank = max(max_rank, group.rank)
            for s in group.samples:
                pair = (str(s.label[0]), str(s.label[1]))
                b = int(s.label[2])
                slot = per_pair.setdefault(pair, {})
                slot[group.rank] = min(b, slot.get(group.rank, b))
        for pair, by_rank in per_pair.items():
            for rank, budget in by_rank.items():
                budgets.setdefault(pair, {}).setdefault(rank, []).append(budget)
    header = "start,acquire," + ",".join(f"rank{r}" for r in range(max_rank + 1))
    lines = [header]
    for pair in sorted(budgets):
        cells = []
        for r in range(max_rank + 1):
            hits = budgets[pair].get(r)
            cells.append(f"{statistics.fmean(hits):.1f}" if hits else "")
        lines.append(f"{pair[0]},{pair[1]}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def improvement_curve_csv(records: list[dict], manifest: dict) -> str:
    """(dataset, start, acquire, budget) rows with normalized improvement.

    Improvement is (mean best - file minimum) / (file mean - file minimum),
    so 0 means the optimum was found and 1 means no better than an average
    row. Degenerate files (mean equals minimum) are skipped. Baseline rows
    are excluded; the file statistics already are the baseline.
    """
    summaries = manifest.get("datasets", {})
    grouped: dict[tuple, list[float]] = {}
    for rec in records:
        if rec["acquire"] == "baseline":
            continue
        key = (rec["dataset"], rec["start"], rec["acquire"], rec["budget"])
        grouped.setdefault(key, []).append(float(rec["best"]))
    lines = ["dataset,start,acquire,budget,improvement"]
    for (ds, start, acquire, budget), vals in sorted(grouped.items()):
        info = summaries.get(ds, {}).get("chebyshev")
        if not info:
            continue
        mu, lo = float(info["mean"]), float(info["lo"])
        if mu <= lo:
            continue
        improvement = (statistics.fmean(vals) - lo) / (mu - lo)
        lines.append(f"{ds},{start},{acquire},{budget},{improvement!r}")
    return "\n".join(lines) + "\n"


def outcomes_csv(records: list[dict]) -> str:
    """(dataset, start, acquire) rows: runs, warm-start fallbacks, and
    records that stopped short of their budget.

    One run serves every budget, so its records share a (repeat, seed)
    pair and a fallback flag; runs and fallbacks are counted over those
    pairs, short records over records.
    """
    fell_back: dict[tuple, dict[tuple, bool]] = {}
    short: dict[tuple, int] = {}
    for rec in records:
        arm = (rec["dataset"], rec["start"], rec["acquire"])
        fell_back.setdefault(arm, {})[rec["repeat"], rec["seed"]] = rec["fallback"]
        short[arm] = short.get(arm, 0) + (rec["evals"] < rec["budget"])
    lines = ["dataset,start,acquire,runs,fallbacks,short_records"]
    for arm, runs in sorted(fell_back.items()):
        lines.append(",".join(arm) + f",{len(runs)},{sum(runs.values())},"
                     f"{short[arm]}")
    return "\n".join(lines) + "\n"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def write_reports(results_dir: Path,
                  out_dir: Optional[Path] = None) -> list[Path]:
    """Generate every report artifact; returns the files written."""
    results_dir = Path(results_dir)
    out_dir = Path(out_dir) if out_dir else results_dir
    records = load_results(results_dir / "results.jsonl")
    if not records:
        raise ValueError(f"no result records under {results_dir}")
    manifest_path = results_dir / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    tables = dataset_rank_tables(records)
    for ds, table in sorted(tables.items()):
        emit(f"rank_{_safe_name(ds)}.txt", render_rank_table(table, title=ds))
        emit(f"rank_{_safe_name(ds)}.csv", rank_table_csv(table))

    dims_of = {ds: info.get("dims", "")
               for ds, info in manifest.get("datasets", {}).items()}
    for stratum, rows in stratum_frequencies(tables, dims_of).items():
        emit(f"freq_{stratum}.csv", frequency_csv(rows))

    emit("evals_needed.csv", evals_needed_csv(tables))
    emit("improvement_curve.csv", improvement_curve_csv(records, manifest))
    emit("outcomes.csv", outcomes_csv(records))
    return written
