"""Two-class surrogate for best/rest acquisition.

Class-conditional naive-Bayes likelihoods stand in for p(x|best) and
p(x|rest): one Gaussian per numeric independent column (on normalized
values, so wide raw ranges cannot dominate) and add-1 smoothed frequencies
per symbolic column. The acquisitions turn the two likelihoods B and R
into scores: exploit chases the zone where both models agree a row is
best, explore chases the zone of dispute where B and R are similar but
large.

The model is fitted on the two id halves of a best/rest split, and holds
both classes' statistics stacked, best first. It scores every row of the
table for both classes at once; the pool it is asked about, like the pick
it returns, is row ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .objective import BestRestSplit

ACQUIRES = ("exploit", "explore")
EPS_DIV = 1e-30          # keeps every ratio finite
SD_FLOOR = 1e-9          # on the normalized [0,1] scale
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class TwoClassModel:
    """Per-class statistics; row 0 of each array is best, row 1 rest."""
    prior: np.ndarray       # (2,)
    num_mean: np.ndarray    # (2, n_num); NaN where the class saw no value
    num_sd: np.ndarray      # (2, n_num), floored at SD_FLOOR
    sym_counts: np.ndarray  # (2, n_slots) over the flat symbol space (x_views)
    sym_n: np.ndarray       # (2, n_sym) observed (non-missing) cells per column
    views: dict             # Dataset.x_views() of the table the model was fitted on


def fit(split: BestRestSplit, ds: Dataset) -> TwoClassModel:
    """Fit class-conditional likelihood models to a best/rest split."""
    k, n = split.k, split.n
    if k == 0 or k == n:
        empty = "best" if k == 0 else "rest"
        raise ValueError(f"cannot fit a two-class model with an empty {empty} class")
    views = ds.x_views()
    n_class = np.array([[k], [n - k]])
    # Mean and sd of every numeric column of both classes, by the
    # arithmetic of ndarray.mean and .std: sum, divide, center, square,
    # sum, divide, root. Each class's cells of a column are a contiguous
    # stretch of one row of the block, so numpy sums them in the same
    # order as the 1-D column it would otherwise reduce, and the results
    # are equal bit for bit. A column where a class has a missing cell
    # sums to NaN; numpy's pairwise sum of its known cells groups them by
    # how many there are, so those are redone one at a time.
    block = views["XT_num"].take(split.ranked, axis=1)  # C order, unlike [:, ids]
    halves = (block[:, :k], block[:, k:])
    sums = np.empty((2, len(block)))
    for c, half in enumerate(halves):
        np.add.reduce(half, axis=1, out=sums[c])
    mean = sums / n_class
    for c, half in enumerate(halves):
        np.subtract(half, mean[c][:, None], out=half)
    np.multiply(block, block, out=block)
    for c, half in enumerate(halves):
        np.add.reduce(half, axis=1, out=sums[c])
    sd = np.maximum(np.sqrt(sums / n_class), SD_FLOOR)
    class_ids = (split.ranked[:k], split.ranked[k:])
    for c, j in zip(*np.isnan(mean).nonzero()):
        col = views["XT_num"][j, class_ids[c]]
        known = col[~np.isnan(col)]
        if known.size:
            mean[c, j] = known.mean()
            sd[c, j] = max(known.std(), SD_FLOOR)
        else:
            mean[c, j], sd[c, j] = np.nan, SD_FLOOR
    # Every symbol count of both classes in one bincount: the rest class
    # counts in a second copy of the flat code space. The last slot of
    # each copy counts missing cells.
    n_slots = views["sym_edges"][-1]
    codes = views["XT_sym"].take(split.ranked, axis=1)
    observed = np.add.reduceat(codes < n_slots, [0, k], axis=1)
    codes[:, k:] += n_slots + 1
    counts = np.bincount(codes.ravel(), minlength=2 * (n_slots + 1))
    counts = counts.reshape(2, n_slots + 1)[:, :n_slots].astype(float)
    return TwoClassModel(prior=n_class[:, 0] / n, num_mean=mean, num_sd=sd,
                         sym_counts=counts, sym_n=observed.T, views=views)


def score_table(m: TwoClassModel) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood pair (B, R) for every row of the table, indexed by id.

    Computed in log space; the larger of each row's two log likelihoods is
    subtracted before exponentiating, so one of each pair is exactly 1 and
    both are finite.
    """
    views = m.views
    XT_num, XT_sym = views["XT_num"], views["XT_sym"]
    n_num, n_rows = XT_num.shape
    # One C-ordered (class, term, row) block: the numeric terms, the log
    # prior, then the symbolic terms. Reducing over the term axis adds
    # each row's terms left to right, as a per-row sum would, and adding
    # the prior after the numeric terms and before the symbolic ones keeps
    # the order of the sums it replaces. Change that order and the sums
    # change in the last bits, and with them, under tiny class sds, the
    # picks.
    block = np.empty((2, n_num + 1 + len(XT_sym), n_rows))
    terms = block[:, :n_num]
    mean, sd = m.num_mean[:, :, None], m.num_sd[:, :, None]
    # -0.5 * ((x - mean) / sd) ** 2 - log(sd) - log(sqrt(2 pi)), in place
    np.subtract(XT_num, mean, out=terms)
    terms /= sd
    np.square(terms, out=terms)
    terms *= -0.5
    terms -= np.log(sd)
    terms -= LOG_SQRT_2PI
    if views["num_missing"].any():
        # a missing cell, or a column the class never saw, adds nothing
        terms[np.isnan(terms)] = 0.0
    block[:, n_num] = [[math.log(p)] for p in m.prior.tolist()]
    # Add-1 smoothed log frequencies over the flat code space, plus a
    # last slot of 0 that every missing cell reads.
    sizes = views["sym_sizes"]
    logp = np.zeros((2, m.sym_counts.shape[1] + 1))
    logp[:, :-1] = np.log((m.sym_counts + 1.0)
                          / (m.sym_n + sizes).repeat(sizes, axis=1))
    block[:, n_num + 1:] = logp[:, XT_sym]
    logs = np.add.reduce(block, axis=1)
    logs -= np.maximum(logs[0], logs[1])
    b, r = np.exp(logs)
    return b, r


def acquire_tpe(m: TwoClassModel, pool: np.ndarray, fn: str) -> int:
    """The id in `pool` maximizing the acquisition.

    exploit scores B / R, the zone where both models agree a row is best;
    explore scores |B + R| / |B - R|, the zone of dispute. Scores the
    whole table and reads the pool's entries off it; ties break toward
    the lowest row id regardless of the order the pool was passed in.
    """
    if len(pool) == 0:
        raise ValueError("cannot acquire from an empty pool")
    if fn not in ACQUIRES:
        raise ValueError(f"unknown TPE acquisition {fn!r}")
    b, r = score_table(m)
    if fn == "exploit":
        scores = b / (r + EPS_DIV)
    else:
        scores = np.abs(b + r) / (np.abs(b - r) + EPS_DIV)
    in_pool = np.empty_like(scores)
    in_pool.fill(-np.inf)
    in_pool[pool] = scores[pool]
    return int(in_pool.argmax())  # the first, so the lowest id, of any tie
