"""Two-class surrogate for best/rest acquisition.

Class-conditional naive-Bayes likelihoods stand in for p(x|best) and
p(x|rest): one Gaussian per numeric independent column (on normalized
values, so wide raw ranges cannot dominate) and add-1 smoothed frequencies
per symbolic column. Both acquisitions read one number per row, the log
ratio d = log B - log R of the two class posteriors, TPE's l(x)/g(x)
(Bergstra et al., "Algorithms for Hyper-Parameter Optimization", 2011):
exploit's B / R is e^d, so it ranks by d, the zone where both models agree
a row is best; explore's |B + R| / |B - R| is coth(|d| / 2), so it ranks
by -|d|, the zone of dispute.

Each Gaussian term is a quadratic in x, so d is linear in one per-table
design matrix [x^2, x, known, symbol one-hot]: a step sums the design rows
of each half of a best/rest split into the class statistics, turns those
into one (best - rest) weight per design column, and scores every row of
the table with one matrix product. The pool it is asked about, like the
pick it returns, is row ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .objective import BestRestSplit

ACQUIRES = ("exploit", "explore")
CONSTANT_FLOOR = 0.5  # sd floor of a column with fewer than two distinct values
FLOOR_MIN = 1e-6      # no sd floor is finer, so every 1 / sd^2 stays under 1e12
TIE_REL = 1e-12       # scores this close, relative to their terms' scale, tie


@dataclass
class TwoClassModel:
    """Per-class statistics, row 0 of each array best and row 1 rest, and
    the weights they give the table's design matrix."""
    prior: np.ndarray       # (2,)
    num_mean: np.ndarray    # (2, n_num); NaN where the class saw no value
    num_sd: np.ndarray      # (2, n_num), floored at the column's sd floor
    sym_counts: np.ndarray  # (2, n_slots) over the flat symbol space (x_views)
    sym_n: np.ndarray       # (2, n_sym) observed (non-missing) cells per column
    design: np.ndarray      # table_terms(ds)["design"]
    weights: np.ndarray     # best minus rest, one per design column
    offset: float           # log(prior_best / prior_rest)


def table_terms(ds: Dataset) -> dict:
    """Whole-table arrays of the naive-Bayes step, built once per table.

    Returns a dict with:
      floor   (n_num,) sd floor per numeric column: half the smallest gap
              between the column's distinct normalized values, at least
              FLOOR_MIN, or CONSTANT_FLOOR when it has no such gap
      design  (n_rows, 3 n_num + n_sym + n_slots) C-ordered [x^2, x,
              known, symbol one-hot]: x^2 and x of each numeric column, 0
              where missing; 1 where a numeric, then a symbolic, cell is
              known; 1 in the slot of each row's symbol. Every entry is in
              [0, 1].
    Only x values feed them, so using them never leaks labels.
    """
    return ds.cached("nb_terms", _build_terms)


def _build_terms(ds: Dataset) -> dict:
    views = ds.x_views()
    floor = np.full(len(views["num_pos"]), CONSTANT_FLOOR)
    for j, col in enumerate(views["XT_num"]):
        distinct = np.unique(col[~np.isnan(col)])
        if len(distinct) > 1:
            floor[j] = max(np.diff(distinct).min() / 2, FLOOR_MIN)
    X = views["X_num"]
    known = ~np.isnan(X)
    x = np.where(known, X, 0.0)
    codes, edges = views["X_sym"], views["sym_edges"]
    onehot = np.zeros((len(X), edges[-1]))
    i, j = np.nonzero(codes >= 0)
    onehot[i, edges[j] + codes[i, j]] = 1.0
    design = np.hstack([x * x, x, known, codes >= 0, onehot])
    return {"floor": floor, "design": design}


def fit(split: BestRestSplit, ds: Dataset) -> TwoClassModel:
    """Fit class-conditional likelihood models to a best/rest split."""
    k, n = split.k, split.n
    if k == 0 or k == n:
        empty = "best" if k == 0 else "rest"
        raise ValueError(f"cannot fit a two-class model with an empty {empty} class")
    views, terms = ds.x_views(), table_terms(ds)
    design, floor = terms["design"], terms["floor"]
    p, q = len(floor), len(views["sym_pos"])
    # Each class's sums of every design column: one gather of the labeled
    # rows, summed over each class's stretch of them.
    rows = design[split.ranked]
    sums = np.add.reduceat(rows, [0, k], axis=0)
    known = sums[:, 2 * p:3 * p]
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN: the class saw no value
        mean = sums[:, p:2 * p] / known
        # the sd in two passes, so a tight class keeps it through rounding
        dev = rows[:, p:2 * p] - mean.repeat([k, n - k], axis=0)
        dev *= rows[:, 2 * p:3 * p]
        sd = np.fmax(np.sqrt(np.add.reduceat(dev * dev, [0, k], axis=0) / known), floor)
    sym_n, counts = sums[:, 3 * p:3 * p + q], sums[:, 3 * p + q:]
    # A class's log density of a numeric x is -x^2 / (2 sd^2) + x mean / sd^2
    # - mean^2 / (2 sd^2) - log sd - log(sqrt(2 pi)), the last term the
    # same for both classes; of a symbol, add-1 smoothed, it is
    # log(count + 1) - log(observed + alphabet size).
    prec = 1.0 / (sd * sd)
    mp = mean * prec
    # no cell of an empty alphabet is known, so any size will do for it
    sizes = np.maximum(views["sym_sizes"], 1)
    per_class = np.concatenate([-0.5 * prec, mp, -0.5 * mean * mp - np.log(sd),
                                -np.log(sym_n + sizes), np.log(counts + 1.0)], axis=1)
    weights = per_class[0] - per_class[1]
    # a numeric column either class never saw (NaN mean) adds nothing to d
    weights[:3 * p].reshape(3, p)[:, np.isnan(weights[p:2 * p])] = 0.0
    return TwoClassModel(prior=np.array([k, n - k]) / n, num_mean=mean, num_sd=sd,
                         sym_counts=counts, sym_n=sym_n, design=design,
                         weights=weights, offset=math.log(k / (n - k)))


def acquire_tpe(m: TwoClassModel, pool: np.ndarray, fn: str) -> int:
    """The id in `pool` maximizing the acquisition.

    exploit ranks by d = log B - log R, explore by -|d|. Ties go to the
    lowest id among the pool rows scoring within TIE_REL of the top, taken
    relative to the sum of the weights' magnitudes plus the offset's. That
    sum bounds every |d|, since each design entry is in [0, 1], and it sets
    the scale of d's rounding, so rows whose true d are equal tie whatever
    order their terms are summed in.
    """
    if len(pool) == 0:
        raise ValueError("cannot acquire from an empty pool")
    if fn not in ACQUIRES:
        raise ValueError(f"unknown TPE acquisition {fn!r}")
    d = m.design @ m.weights
    score = d[pool] + m.offset
    if fn == "explore":
        score = -np.abs(score)
    tol = TIE_REL * (np.abs(m.weights).sum() + abs(m.offset))
    return int(pool[score >= score.max() - tol].min())
