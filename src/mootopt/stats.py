"""Treatment ranking: Scott-Knott bi-clustering gated by effect size
and bootstrap significance.

Samples sort by median, then a cut maximizing the between-group mean
difference splits the list; the two halves recurse only when they differ
by more than a small Cliff's Delta AND a bootstrap test rejects "same".
Groups therefore come out as non-overlapping intervals of the sorted
order with contiguous ranks, rank 0 best (lowest chebyshev).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DELTA_SMALL = 0.147  # Cliff's Delta at or below this is a negligible effect
N_BOOT = 512         # bootstrap resamples per test
CONF = 0.95          # the bootstrap rejects "same" at significance 1 - CONF


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
