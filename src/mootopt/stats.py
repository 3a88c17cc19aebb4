"""Treatment ranking: Scott-Knott bi-clustering gated by effect size
and bootstrap significance.

Samples sort by median, then a cut maximizing the between-group mean
difference splits the list; the two halves recurse only when they differ
by more than a small Cliff's Delta AND a bootstrap test rejects "same".
Groups therefore come out as non-overlapping intervals of the sorted
order, best (lowest chebyshev) first, so a group's rank is its index.
A sample's sd is `pstdev`'s: correctly rounded, alike on every Python.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

DELTA_SMALL = 0.147  # Cliff's Delta at or below this is a negligible effect
N_BOOT = 512         # bootstrap resamples per test
CONF = 0.95          # the bootstrap rejects "same" at significance 1 - CONF


def pstdev(values: Sequence[float]) -> float:
    """Population sd of finite floats, correctly rounded as by Python 3.11's
    statistics.pstdev: an exact variance in Python ints, its root rounded to
    odd on 2*53+3 bits or more, then one int/int division (Boldo & Melquiond)."""
    ratios = [v.as_integer_ratio() for v in values]
    top = max(q for _, q in ratios)
    xs = [p << top.bit_length() - q.bit_length() for p, q in ratios]
    n, s = len(xs), sum(xs)
    num, den = n * sum(x * x for x in xs) - s * s, (n * top) ** 2  # variance num/den
    j = max(0, den.bit_length() - num.bit_length() + 110) // 2
    root = math.isqrt((num << 2 * j) // den)
    return (root | (root * root * den != num << 2 * j)) / (1 << j)


@dataclass
class Sample:
    """A labeled list of values. `median`, `sd` (`pstdev`, correctly rounded)
    and `total` are cached, so `values` must not change after construction."""
    label: tuple  # (start, acquire, budget) in reports; opaque elsewhere
    values: list[float]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"sample {self.label!r} has no values")

    @cached_property
    def median(self) -> float:
        return statistics.median(self.values)

    @cached_property
    def sd(self) -> float:
        return pstdev(self.values)

    @cached_property
    def total(self) -> float:
        return np.asarray(self.values, dtype=float).sum()


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
    sums = np.array([s.total for s in samples])
    counts = np.array([len(s.values) for s in samples], dtype=float)
    total_sum, total_n = sums.sum(), counts.sum()
    grand = total_sum / total_n
    # accumulate adds left to right, as a running sum does; float_power squares
    # with libm's pow, as a float64 scalar's ** does (an array's ** multiplies)
    left_sum, left_n = np.add.accumulate(sums[:-1]), np.add.accumulate(counts[:-1])
    right_sum, right_n = total_sum - left_sum, total_n - left_n
    gains = (left_n / total_n) * np.float_power(left_sum / left_n - grand, 2) \
        + (right_n / total_n) * np.float_power(right_sum / right_n - grand, 2)
    cut = gains.argmax()  # the first of equal gains
    return int(cut) + 1 if gains[cut] > 0 else None


def scott_knott(samples: Sequence[Sample]) -> list[list[Sample]]:
    """Recursive bi-clustering into statistically distinct groups, rank 0 first."""
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

    descend(ordered)
    return groups
