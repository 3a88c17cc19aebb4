"""Every file `mootopt rank` writes, from a directory of run records.

Everything here is a pure function of the results file plus the manifest
written alongside it, so regenerating reports is always safe and always
byte-identical. One rank table per dataset (text and CSV), one
rank-frequency table per dimensionality stratum, an evaluations-needed
summary, the budget versus normalized-improvement series, and per-arm
run outcomes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import STRATA
from .stats import Sample, scott_knott

SPARK_WIDTH = 20


# The fields engine.Run.record writes, and the exact JSON types each holds.
FIELDS = dict(dataset={str}, start={str}, acquire={str}, budget={int}, repeat={int},
              seed={int}, evals={int}, best={int, float}, fallback={bool})
CELL = ("dataset", "start", "acquire", "budget", "repeat")  # one record a cell


def _finite(v: int | float) -> bool:
    """Whether v is finite as a float; an int past float range is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def load_results(path: Path) -> list[dict]:
    """The records of a results file, one cell each: a line that is not a
    record, or a second record of a cell, raises ValueError."""
    records = []
    cells: dict[tuple, int] = {}  # each cell's line
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rec = json.loads(line)
                    if not (isinstance(rec, dict) and all(
                            type(rec.get(k)) in types for k, types in FIELDS.items())):
                        raise ValueError("not a record of " + ", ".join(FIELDS))
                    for k in ("best", "budget"):
                        if not _finite(rec[k]):
                            raise ValueError(f"{k} is {rec[k]}, not a finite number")
                    cell = tuple(rec[k] for k in CELL)
                    if (first := cells.setdefault(cell, n)) != n:
                        raise ValueError(f"repeats the cell of line {first}")
                except ValueError as exc:
                    raise ValueError(f"{path} line {n}: {exc}") from None
                records.append(rec)
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


def _pair_ranks(table: list[list[Sample]]) -> dict[tuple[str, str], dict[int, int]]:
    """Each (start, acquire) pair's ranks in one table of Scott-Knott
    groups, each mapped to the smallest budget at which the pair holds it."""
    held: dict[tuple[str, str], dict[int, int]] = {}
    for rank, group in enumerate(table):
        for start, acquire, budget in (s.label for s in group):
            by_rank = held.setdefault((start, acquire), {})
            by_rank[rank] = min(budget, by_rank.get(rank, budget))
    return held


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    """CSV text of a header line and rows, quoting only the fields that
    need it (a dataset name with a comma, say); a float is its repr."""
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _rank_matrix_csv(rows: Iterable[tuple[str, str, dict[int, float]]],
                     empty: str) -> str:
    """One `start,acquire,rank0,...` line per (start, acquire, {rank: value})
    row, values to one decimal and `empty` where a row has no value. The
    columns run to the highest rank any row holds, rank0 at least."""
    rows = list(rows)
    top = max((r for _, _, by_rank in rows for r in by_rank), default=0)
    return _csv("start,acquire," + ",".join(f"rank{r}" for r in range(top + 1)),
                ([start, acquire] + [f"{by_rank[r]:.1f}" if r in by_rank
                                     else empty for r in range(top + 1)]
                 for start, acquire, by_rank in rows))


def frequency_csv(tables: Sequence[list[list[Sample]]]) -> str:
    """How often each (start, acquire) pair lands at each rank, in percent.

    A pair's rank within one table is its best rank over budgets; each
    table is one dataset, and percentages are out of all tables given.
    A pair missing from a table contributes nothing for that table.
    Rows are sorted by the rank-0 percentage, best first.
    """
    counts: dict[tuple[str, str], Counter] = {}
    for table in tables:
        for pair, by_rank in _pair_ranks(table).items():
            counts.setdefault(pair, Counter())[min(by_rank)] += 1
    rows = [(start, acquire,
             {r: 100.0 * c / len(tables) for r, c in tally.items()})
            for (start, acquire), tally in counts.items()]
    rows.sort(key=lambda row: (-row[2].get(0, 0.0), row[0], row[1]))
    return _rank_matrix_csv(rows, empty="0.0")


def evals_needed_csv(tables: dict[str, list[list[Sample]]]) -> str:
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


def improvement_curve_csv(by_dataset: dict[str, list[Sample]], manifest: dict) -> str:
    """(dataset, start, acquire, budget) rows with normalized improvement,
    from the records grouped by `samples_by_dataset`.

    Improvement is (mean best - file minimum) / (file mean - file minimum),
    so 0 means the optimum was found and 1 means no better than an average
    row. Degenerate files (mean equals minimum) are skipped. Baseline rows
    are excluded; the file statistics already are the baseline.
    """
    summaries = manifest.get("datasets", {})
    rows = []
    for ds, samples in by_dataset.items():
        info = summaries.get(ds, {}).get("chebyshev")
        if not info:
            continue
        mu, lo = float(info["mean"]), float(info["lo"])
        if mu <= lo:
            continue
        for s in samples:
            start, acquire, budget = s.label
            if acquire != "baseline":
                rows.append([ds, start, acquire, budget,
                             (statistics.fmean(s.values) - lo) / (mu - lo)])
    return _csv("dataset,start,acquire,budget,improvement", rows)


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
    return _csv("dataset,start,acquire,runs,fallbacks,short_records",
                ([*arm, len(runs), sum(runs.values()), short[arm]]
                 for arm, runs in sorted(fell_back.items())))


def _quartiles(values: list[float]) -> list[float]:
    """np.percentile(values, [25, 50, 75]), lerping from the upper end at weight
    0.5 or more, on a partition at numpy's pivots: tied zeros keep numpy's signs."""
    if len(values) == 1:
        return values * 3
    ats = [(len(values) - 1) * q for q in (0.25, 0.5, 0.75)]
    kth = {0, len(values) - 1} | {int(at) + d for at in ats for d in (0, 1)}
    v = np.partition(np.array(values, dtype=float), sorted(kth)).tolist()
    out = []
    for at in ats:
        a, b, t = v[int(at)], v[int(at) + 1], at - int(at)
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def _spark(values: list[float], lo: float, hi: float) -> str:
    """Quartile strip: dashes span q1..q3, 'o' marks the median."""
    marks = [" "] * SPARK_WIDTH
    if hi > lo:
        q1, q2, q3 = _quartiles(values)
        at = lambda v: min(SPARK_WIDTH - 1, int((v - lo) / (hi - lo) * SPARK_WIDTH))
        for i in range(at(q1), at(q3) + 1):
            marks[i] = "-"
        marks[at(q2)] = "o"
    else:
        marks[0] = "o"
    return "".join(marks)


def render_rank_table(table: list[list[Sample]], title: str) -> str:
    """`title`, then aligned rank, treatment, budget, median, sd, quartile strip."""
    pooled = [v for group in table for s in group for v in s.values]
    lo, hi = min(pooled), max(pooled)
    rows = []
    for rank, group in enumerate(table):
        for s in group:
            start, acquire, budget = s.label
            rows.append((str(rank), start, acquire, str(budget),
                         f"{s.median:.2f}", f"{s.sd:.2f}",
                         "|" + _spark(s.values, lo, hi) + "|"))
    header = ("rank", "start", "acquire", "budget", "median", "sd", "")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(7)]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rank_table_csv(table: list[list[Sample]]) -> str:
    return _csv("rank,start,acquire,budget,median,sd,n",
                ([rank, *s.label, s.median, s.sd, len(s.values)]
                 for rank, group in enumerate(table) for s in group))


def rank_stem(dataset: str) -> str:
    """The name, without extension, of a dataset's two rank files."""
    return "rank_" + re.sub(r"[^A-Za-z0-9._-]+", "_", dataset)


def clashing_names(names: Iterable[str]) -> Optional[tuple[int, int]]:
    """The positions of the first two dataset names whose rank files would
    share a name, or None. `a b` and `a_b` both write rank_a_b.*, and two
    copies of one name always do."""
    first: dict[str, int] = {}
    for j, name in enumerate(names):
        i = first.setdefault(rank_stem(name), j)
        if i != j:
            return i, j
    return None


def write_reports(results_dir: Path, out_dir: Optional[Path] = None) -> None:
    """Generate every report artifact."""
    results_dir = Path(results_dir)
    out_dir = Path(out_dir) if out_dir else results_dir
    records = load_results(results_dir / "results.jsonl")
    if not records:
        raise ValueError(f"no result records under {results_dir}")
    manifest_path = results_dir / "manifest.json"
    try:
        manifest = (json.loads(manifest_path.read_text(encoding="utf-8"))
                    if manifest_path.exists() else {})
        infos = manifest.get("datasets", {}) if isinstance(manifest, dict) else None
        if not (isinstance(infos, dict) and all(isinstance(i, dict) and (
                "chebyshev" not in i or isinstance(c := i["chebyshev"], dict)
                and all(type(v := c.get(k)) in {int, float} and _finite(v)
                        for k in ("mean", "lo")))
                for i in infos.values())):
            raise ValueError("malformed 'datasets' or 'chebyshev' entry")
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None

    out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text, encoding="utf-8")

    by_dataset = samples_by_dataset(records)
    clash = clashing_names(by_dataset)
    if clash:
        a, b = (list(by_dataset)[i] for i in clash)
        raise ValueError(f"datasets {a!r} and {b!r} would both "
                         f"write {rank_stem(a)}.txt and {rank_stem(a)}.csv")
    tables = {ds: scott_knott(samples) for ds, samples in by_dataset.items()}
    for ds, table in tables.items():
        emit(f"{rank_stem(ds)}.txt", render_rank_table(table, title=ds))
        emit(f"{rank_stem(ds)}.csv", rank_table_csv(table))

    dims_of = {ds: info.get("dims", "")
               for ds, info in manifest.get("datasets", {}).items()}
    for stratum in STRATA:
        members = [t for ds, t in tables.items() if dims_of.get(ds) == stratum]
        emit(f"freq_{stratum}.csv", frequency_csv(members))

    emit("evals_needed.csv", evals_needed_csv(tables))
    emit("improvement_curve.csv", improvement_curve_csv(by_dataset, manifest))
    emit("outcomes.csv", outcomes_csv(records))
