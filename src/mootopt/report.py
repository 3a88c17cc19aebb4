"""Every file `mootopt rank` writes, from a directory of run records.

Everything here is a pure function of the results file plus the manifest
written alongside it, so regenerating reports is always safe and always
byte-identical. One rank table per dataset (text and CSV), one
rank-frequency table per dimensionality stratum, an evaluations-needed
summary, the budget versus normalized-improvement series, and per-arm
run outcomes.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .stats import RankTable, Sample, scott_knott

STRATA = ("low", "medium", "high")
SPARK_WIDTH = 20


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


def _pair_ranks(table: RankTable) -> dict[tuple[str, str], dict[int, int]]:
    """Each (start, acquire) pair's ranks in one table, each mapped to the
    smallest budget at which the pair holds it."""
    held: dict[tuple[str, str], dict[int, int]] = {}
    for group in table.groups:
        for start, acquire, budget in (s.label for s in group.samples):
            by_rank = held.setdefault((start, acquire), {})
            by_rank[group.rank] = min(budget, by_rank.get(group.rank, budget))
    return held


def _rank_matrix_csv(rows: Iterable[tuple[str, str, dict[int, float]]],
                     empty: str) -> str:
    """One `start,acquire,rank0,...` line per (start, acquire, {rank: value})
    row, values to one decimal and `empty` where a row has no value. The
    columns run to the highest rank any row holds, rank0 at least."""
    rows = list(rows)
    top = max((r for _, _, by_rank in rows for r in by_rank), default=0)
    lines = ["start,acquire," + ",".join(f"rank{r}" for r in range(top + 1))]
    for start, acquire, by_rank in rows:
        cells = [f"{by_rank[r]:.1f}" if r in by_rank else empty
                 for r in range(top + 1)]
        lines.append(f"{start},{acquire}," + ",".join(cells))
    return "\n".join(lines) + "\n"


class FreqRow(NamedTuple):
    start: str
    acquire: str
    pct: dict[int, float]  # rank -> percent


def rank_frequencies(tables: Sequence[RankTable]) -> list[FreqRow]:
    """How often each (start, acquire) pair lands at each rank.

    A pair's rank within one table is its best rank over budgets; each
    table is one dataset, and percentages are out of all tables given.
    A pair missing from a table contributes nothing for that table.
    Rows come back sorted by the rank-0 percentage, best first.
    """
    if not tables:
        raise ValueError("rank_frequencies needs at least 1 table")
    counts: dict[tuple[str, str], Counter] = {}
    for table in tables:
        for pair, by_rank in _pair_ranks(table).items():
            counts.setdefault(pair, Counter())[min(by_rank)] += 1
    rows = [FreqRow(start, acquire,
                    {r: 100.0 * c / len(tables) for r, c in tally.items()})
            for (start, acquire), tally in counts.items()]
    rows.sort(key=lambda fr: (-fr.pct.get(0, 0.0), fr.start, fr.acquire))
    return rows


def frequency_csv(rows: list[FreqRow]) -> str:
    """Rank-frequency percentages, one row per (start, acquire) pair."""
    return _rank_matrix_csv(rows, empty="0.0")


def evals_needed_csv(tables: dict[str, RankTable]) -> str:
    """Average budget at which each treatment pair reached each rank.

    Within one dataset a pair may hit the same rank at several budgets;
    the smallest such budget counts (fewest evaluations needed), and the
    average runs over the datasets where the pair reached that rank.
    """
    budgets: dict[tuple[str, str], dict[int, list[int]]] = {}
    for table in tables.values():
        for pair, by_rank in _pair_ranks(table).items():
            for rank, budget in by_rank.items():
                budgets.setdefault(pair, {}).setdefault(rank, []).append(budget)
    return _rank_matrix_csv(
        ((start, acquire, {r: statistics.fmean(b) for r, b in by_rank.items()})
         for (start, acquire), by_rank in sorted(budgets.items())), empty="")


def improvement_curve_csv(records: list[dict], manifest: dict) -> str:
    """(dataset, start, acquire, budget) rows with normalized improvement.

    Improvement is (mean best - file minimum) / (file mean - file minimum),
    so 0 means the optimum was found and 1 means no better than an average
    row. Degenerate files (mean equals minimum) are skipped. Baseline rows
    are excluded; the file statistics already are the baseline.
    """
    summaries = manifest.get("datasets", {})
    lines = ["dataset,start,acquire,budget,improvement"]
    for ds, samples in samples_by_dataset(records).items():
        info = summaries.get(ds, {}).get("chebyshev")
        if not info:
            continue
        mu, lo = float(info["mean"]), float(info["lo"])
        if mu <= lo:
            continue
        for s in samples:
            start, acquire, budget = s.label
            if acquire != "baseline":
                improvement = (statistics.fmean(s.values) - lo) / (mu - lo)
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


def _spark(values: list[float], lo: float, hi: float,
           width: int = SPARK_WIDTH) -> str:
    """Quartile strip: dashes span q1..q3, 'o' marks the median."""
    marks = [" "] * width
    if hi > lo:
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        at = lambda v: min(width - 1, int((v - lo) / (hi - lo) * width))
        for i in range(at(q1), at(q3) + 1):
            marks[i] = "-"
        marks[at(q2)] = "o"
    else:
        marks[0] = "o"
    return "".join(marks)


def render_rank_table(table: RankTable, title: str = "") -> str:
    """Aligned text: rank, treatment, budget, median, sd, quartile strip."""
    pooled = [v for s in table.samples for v in s.values]
    lo, hi = min(pooled), max(pooled)
    rows = []
    for group in table.groups:
        for s in group.samples:
            start, acquire, budget = s.label
            rows.append((str(group.rank), start, acquire, str(budget),
                         f"{s.median:.2f}", f"{s.sd:.2f}",
                         "|" + _spark(s.values, lo, hi) + "|"))
    header = ("rank", "start", "acquire", "budget", "median", "sd", "")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(7)]
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rank_table_csv(table: RankTable) -> str:
    lines = ["rank,start,acquire,budget,median,sd,n"]
    for group in table.groups:
        for s in group.samples:
            start, acquire, budget = s.label
            lines.append(f"{group.rank},{start},{acquire},{budget},"
                         f"{s.median!r},{s.sd!r},{len(s.values)}")
    return "\n".join(lines) + "\n"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def write_reports(results_dir: Path, out_dir: Optional[Path] = None) -> None:
    """Generate every report artifact."""
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

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")

    tables = {ds: scott_knott(samples)
              for ds, samples in samples_by_dataset(records).items()}
    for ds, table in tables.items():
        emit(f"rank_{_safe_name(ds)}.txt", render_rank_table(table, title=ds))
        emit(f"rank_{_safe_name(ds)}.csv", rank_table_csv(table))

    dims_of = {ds: info.get("dims", "")
               for ds, info in manifest.get("datasets", {}).items()}
    for stratum in STRATA:
        members = [t for ds, t in tables.items() if dims_of.get(ds) == stratum]
        emit(f"freq_{stratum}.csv",
             frequency_csv(rank_frequencies(members) if members else []))

    emit("evals_needed.csv", evals_needed_csv(tables))
    emit("improvement_curve.csv", improvement_curve_csv(records, manifest))
    emit("outcomes.csv", outcomes_csv(records))
