"""Treatment ranking: Scott-Knott bi-clustering gated by effect size
and bootstrap significance, plus cross-dataset rank-frequency tables.

Samples sort by median, then a cut maximizing the between-group mean
difference splits the list; the two halves recurse only when they differ
by more than a small Cliff's Delta AND a bootstrap test rejects "same".
Groups therefore come out as non-overlapping intervals of the sorted
order with contiguous ranks, rank 0 best (lowest chebyshev).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

DELTA_SMALL = 0.147  # Cliff's Delta at or below this is a negligible effect
N_BOOT = 512         # bootstrap resamples per test
CONF = 0.95          # the bootstrap rejects "same" at significance 1 - CONF
SPARK_WIDTH = 20


@dataclass
class Sample:
    label: tuple  # (start, acquire, budget) in reports; opaque elsewhere
    values: list[float]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"sample {self.label!r} has no values")

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def sd(self) -> float:
        return statistics.pstdev(self.values) if len(self.values) > 1 else 0.0


@dataclass
class RankGroup:
    rank: int
    samples: list[Sample]


@dataclass
class RankTable:
    groups: list[RankGroup]

    @property
    def samples(self) -> list[Sample]:
        return [s for g in self.groups for s in g.samples]


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """(#(x>y) - #(x<y)) / (|a| |b|) over all pairs; in [-1, 1]."""
    if not len(a) or not len(b):
        raise ValueError("cliffs_delta needs two non-empty lists")
    xs = np.asarray(a, dtype=float)[:, None]
    ys = np.asarray(b, dtype=float)[None, :]
    gt = int((xs > ys).sum())
    lt = int((xs < ys).sum())
    return (gt - lt) / (len(a) * len(b))


def bootstrap_same(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when the observed mean gap is unremarkable under the null.

    Both lists are recentered onto the pooled mean, resampled with
    replacement N_BOOT times, and the observed |mean(a) - mean(b)| is
    compared against that null distribution at significance 1 - CONF.
    Seeded, so identical inputs always give the identical verdict.
    """
    if not len(a) or not len(b):
        raise ValueError("bootstrap_same needs two non-empty lists")
    xs = np.asarray(a, dtype=float)
    ys = np.asarray(b, dtype=float)
    observed = abs(xs.mean() - ys.mean())
    pooled_mean = np.concatenate([xs, ys]).mean()
    xs_null = xs - xs.mean() + pooled_mean
    ys_null = ys - ys.mean() + pooled_mean
    rng = np.random.default_rng(0)
    xi = rng.integers(0, len(xs), size=(N_BOOT, len(xs)))
    yi = rng.integers(0, len(ys), size=(N_BOOT, len(ys)))
    gaps = np.abs(xs_null[xi].mean(axis=1) - ys_null[yi].mean(axis=1))
    p = float((gaps >= observed).mean())
    return p >= (1.0 - CONF)


def _pooled(samples: Sequence[Sample]) -> list[float]:
    return [v for s in samples for v in s.values]


def sk_split(samples: Sequence[Sample]) -> Optional[int]:
    """Cut index maximizing the weighted squared mean shift of the halves.

    Returns i meaning [:i] vs [i:], or None when every cut has zero gain
    (all values identical). E(...) is the mean over pooled values, and
    sizes count values, not samples.
    """
    if len(samples) < 2:
        raise ValueError("sk_split needs at least 2 samples")
    values = [np.asarray(s.values, dtype=float) for s in samples]
    sums = np.array([v.sum() for v in values])
    counts = np.array([len(v) for v in values], dtype=float)
    total_sum, total_n = sums.sum(), counts.sum()
    grand = total_sum / total_n
    best_gain, best_cut = 0.0, None
    left_sum = left_n = 0.0
    for i in range(1, len(samples)):
        left_sum += sums[i - 1]
        left_n += counts[i - 1]
        right_sum = total_sum - left_sum
        right_n = total_n - left_n
        gain = (left_n / total_n) * (left_sum / left_n - grand) ** 2 \
            + (right_n / total_n) * (right_sum / right_n - grand) ** 2
        if gain > best_gain:
            best_gain, best_cut = gain, i
    return best_cut


def scott_knott(samples: Sequence[Sample]) -> RankTable:
    """Recursive bi-clustering of samples into statistically distinct ranks."""
    if not samples:
        raise ValueError("scott_knott needs at least 1 sample")
    ordered = sorted(samples, key=lambda s: (s.median, str(s.label)))
    groups: list[list[Sample]] = []

    def descend(subs: list[Sample]) -> None:
        if len(subs) >= 2:
            cut = sk_split(subs)
            if cut is not None:
                a, b = _pooled(subs[:cut]), _pooled(subs[cut:])
                if abs(cliffs_delta(a, b)) > DELTA_SMALL and not bootstrap_same(a, b):
                    descend(subs[:cut])
                    descend(subs[cut:])
                    return
        groups.append(subs)

    descend(list(ordered))
    return RankTable([RankGroup(rank=i, samples=g) for i, g in enumerate(groups)])


# -- cross-dataset aggregation ------------------------------------------------

@dataclass
class FreqRow:
    start: str
    acquire: str
    pct: dict[int, float] = field(default_factory=dict)  # rank -> percent


def rank_frequencies(tables: Sequence[RankTable]) -> list[FreqRow]:
    """How often each (start, acquire) pair lands at each rank.

    A pair's rank within one table is its best rank over budgets; each
    table is one dataset, and percentages are out of all tables given.
    A pair missing from a table contributes nothing for that table.
    Rows come back sorted by the rank-0 percentage, best first.
    """
    if not tables:
        raise ValueError("rank_frequencies needs at least 1 table")
    pairs = sorted({(s.label[0], s.label[1])
                    for t in tables for s in t.samples})
    counts: dict[tuple[str, str], dict[int, int]] = {p: {} for p in pairs}
    for table in tables:
        for pair in pairs:
            ranks = [g.rank for g in table.groups for s in g.samples
                     if (s.label[0], s.label[1]) == pair]
            if ranks:
                r = min(ranks)
                counts[pair][r] = counts[pair].get(r, 0) + 1
    out = []
    for (start, acquire) in pairs:
        pct = {r: 100.0 * c / len(tables)
               for r, c in sorted(counts[(start, acquire)].items())}
        out.append(FreqRow(start=start, acquire=acquire, pct=pct))
    out.sort(key=lambda fr: (-fr.pct.get(0, 0.0), fr.start, fr.acquire))
    return out


# -- rendering ----------------------------------------------------------------

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


def _label_parts(label: tuple) -> tuple[str, str, str]:
    start, acquire = str(label[0]), str(label[1])
    budget = str(label[2]) if len(label) > 2 else ""
    return start, acquire, budget


def render_rank_table(table: RankTable, title: str = "") -> str:
    """Aligned text: rank, treatment, budget, median, sd, quartile strip."""
    pooled = [v for s in table.samples for v in s.values]
    lo, hi = min(pooled), max(pooled)
    rows = []
    for group in table.groups:
        for s in group.samples:
            start, acquire, budget = _label_parts(s.label)
            rows.append((str(group.rank), start, acquire, budget,
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
            start, acquire, budget = _label_parts(s.label)
            lines.append(f"{group.rank},{start},{acquire},{budget},"
                         f"{s.median!r},{s.sd!r},{len(s.values)}")
    return "\n".join(lines) + "\n"


def frequency_csv(rows: list[FreqRow]) -> str:
    """Rank-frequency percentages, one row per (start, acquire) pair."""
    max_rank = max((r for fr in rows for r in fr.pct), default=0)
    header = "start,acquire," + ",".join(f"rank{r}" for r in range(max_rank + 1))
    lines = [header]
    for fr in rows:
        cells = [f"{fr.pct.get(r, 0.0):.1f}" for r in range(max_rank + 1)]
        lines.append(f"{fr.start},{fr.acquire}," + ",".join(cells))
    return "\n".join(lines) + "\n"
