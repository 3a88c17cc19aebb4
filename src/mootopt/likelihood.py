"""Two-class surrogate for best/rest acquisition.

Class-conditional naive-Bayes likelihoods stand in for p(x|best) and
p(x|rest): one Gaussian per numeric independent column (on normalized
values, so wide raw ranges cannot dominate) and add-1 smoothed frequencies
per symbolic column. The acquisitions turn the two likelihoods B and R
into scores: exploit chases the zone where both models agree a row is
best, explore chases the zone of dispute where B and R are similar but
large.

The model is fitted on a best/rest split, whose halves are Rows; the pool
it scores, and the pick it returns, are row ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, row_ids
from .objective import BestRestSplit

ACQUIRES = ("exploit", "explore")
EPS_DIV = 1e-30          # keeps every ratio finite
SD_FLOOR = 1e-9          # on the normalized [0,1] scale
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class ClassStats:
    prior: float
    n: int
    num_mean: np.ndarray   # per numeric x column; NaN when the class saw no value
    num_sd: np.ndarray     # floored at SD_FLOOR
    sym_counts: list[np.ndarray]  # per symbolic x column: counts over its alphabet
    sym_n: np.ndarray      # observed (non-missing) class count per symbolic column


@dataclass
class TwoClassModel:
    best: ClassStats
    rest: ClassStats
    views: dict  # Dataset.x_views() of the table the model was fitted on


def _class_stats(rows, n_total: int, views: dict) -> ClassStats:
    ids = row_ids(rows)
    # Mean and sd of every numeric column at once, by the arithmetic of
    # ndarray.mean and .std: sum, divide, center, square, sum, divide,
    # root. Each column is a contiguous row of the block, so numpy sums it
    # in the same order as the 1-D column it would otherwise reduce, and
    # the results are equal bit for bit. Columns with missing cells drop
    # them one column at a time.
    block = views["XT_num"].take(ids, axis=1)  # C order, unlike [:, ids]
    m = len(ids)
    mean = np.add.reduce(block, axis=1) / m
    dev = block - mean[:, None]
    np.multiply(dev, dev, out=dev)
    sd = np.maximum(np.sqrt(np.add.reduce(dev, axis=1) / m), SD_FLOOR)
    for j in np.flatnonzero(views["num_missing"]):
        known = block[j][~np.isnan(block[j])]
        if known.size:
            mean[j] = known.mean()
            sd[j] = max(known.std(), SD_FLOOR)
        else:
            mean[j], sd[j] = np.nan, SD_FLOOR
    counts = []
    sym_n = np.zeros(len(views["sym_pos"]), dtype=np.int64)
    xs = views["X_sym"][ids]
    for j, alphabet in enumerate(views["alphabets"]):
        codes = xs[:, j]
        codes = codes[codes >= 0]
        counts.append(np.bincount(codes, minlength=len(alphabet)).astype(float))
        sym_n[j] = codes.size
    return ClassStats(prior=len(ids) / n_total, n=len(ids),
                      num_mean=mean, num_sd=sd, sym_counts=counts, sym_n=sym_n)


def fit(split: BestRestSplit, ds: Dataset) -> TwoClassModel:
    """Fit class-conditional likelihood models to a best/rest split."""
    if not split.best or not split.rest:
        empty = "best" if not split.best else "rest"
        raise ValueError(f"cannot fit a two-class model with an empty {empty} class")
    views = ds.x_views()
    n = split.n
    return TwoClassModel(best=_class_stats(split.best, n, views),
                         rest=_class_stats(split.rest, n, views),
                         views=views)


def _log_like_pool(cs: ClassStats, views: dict, xn: np.ndarray,
                   xs: np.ndarray) -> np.ndarray:
    lp = np.full(len(xn), math.log(cs.prior))
    usable = ~np.isnan(cs.num_mean)
    if usable.any():
        # Boolean column indexing leaves xn in F order, so each row's sum
        # below runs left to right; keep it, or the sums change in the
        # last bits (and with them, under tiny class sds, the picks).
        xn = xn[:, usable]
        sd = cs.num_sd[usable]
        # -0.5 * ((x - mean) / sd) ** 2 - log(sd) - log(sqrt(2 pi)), in place
        terms = xn - cs.num_mean[usable]
        terms /= sd
        np.square(terms, out=terms)
        terms *= -0.5
        terms -= np.log(sd)
        terms -= LOG_SQRT_2PI
        if views["num_missing"].any():
            terms[np.isnan(xn)] = 0.0
        lp += terms.sum(axis=1)
    for j, alphabet in enumerate(views["alphabets"]):
        codes = xs[:, j]
        logp = np.log((cs.sym_counts[j] + 1.0) / (cs.sym_n[j] + len(alphabet)))
        lp += np.where(codes >= 0, logp[np.maximum(codes, 0)], 0.0)
    return lp


def score_pool(m: TwoClassModel, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood pair (B, R) for each row id in `ids`.

    Computed in log space; the larger of each row's two log likelihoods is
    subtracted before exponentiating, so one of each pair is exactly 1 and
    both are finite.
    """
    xn, xs = m.views["X_num"][ids], m.views["X_sym"][ids]
    lb = _log_like_pool(m.best, m.views, xn, xs)
    lr = _log_like_pool(m.rest, m.views, xn, xs)
    top = np.maximum(lb, lr)
    return np.exp(lb - top), np.exp(lr - top)


def acquire_tpe(m: TwoClassModel, pool: np.ndarray, fn: str) -> int:
    """The id in `pool` maximizing the acquisition.

    exploit scores B / R, the zone where both models agree a row is best;
    explore scores |B + R| / |B - R|, the zone of dispute. Scores the
    whole pool; ties break toward the lowest row id regardless of the
    order the pool was passed in.
    """
    if len(pool) == 0:
        raise ValueError("cannot acquire from an empty pool")
    if fn not in ACQUIRES:
        raise ValueError(f"unknown TPE acquisition {fn!r}")
    ids = np.sort(pool)
    b, r = score_pool(m, ids)
    if fn == "exploit":
        scores = b / (r + EPS_DIV)
    else:
        scores = np.abs(b + r) / (np.abs(b - r) + EPS_DIV)
    return int(ids[np.argmax(scores)])
