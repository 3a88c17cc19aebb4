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
the table with one matrix product.

Both steps take a batch of runs on one table, a single run being a batch
of one: `fit` sums every run's two halves with one `reduceat`, and
`acquire_tpe` scores the table for every run with one matrix product,
then takes each run's pick, a row id, from its own pool mask. No run's
weights or pick depend on the other runs of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .objective import BestRestSplit

ACQUIRES = ("exploit", "explore")
FLOOR_MIN = 1e-6      # no sd floor is finer, so every 1 / sd^2 stays under 1e12
TIE_REL = 1e-12       # scores this close, relative to their terms' scale, tie


@dataclass
class TwoClassModel:
    """What a step reads, for each run r of a batch:
    d[r] = design @ weights[r] + offset[r] over every row of the table."""
    design: np.ndarray      # table_terms(ds)["design"]
    weights: np.ndarray     # (runs, design columns): best minus rest
    offset: np.ndarray      # (runs,) log(prior_best / prior_rest)


def table_terms(ds: Dataset) -> dict:
    """Whole-table arrays of the naive-Bayes step, built once per table.

    Returns a dict with:
      floor   (n_num,) sd floor per numeric column: half the smallest gap
              between the column's distinct normalized values, at least
              FLOOR_MIN (a column with one value has no gap; its weights
              cancel to 0 whatever its floor)
      design  (n_rows, 3 n_num + n_sym + n_slots) C-ordered [x^2, x,
              known, symbol one-hot]: x^2 and x of each numeric column, 0
              where missing; 1 where a numeric, then a symbolic, cell is
              known; 1 in the slot of each row's symbol. Every entry is in
              [0, 1].
      sizes   (n_sym,) alphabet size per symbolic column
    Only x values feed them, so using them never leaks labels.
    """
    return ds.cached(_build_terms)


def _build_terms(ds: Dataset) -> dict:
    views = ds.x_views()
    floor = np.full(len(views["num_pos"]), FLOOR_MIN)
    X = views["X_num"]
    for j, col in enumerate(X.T):
        # Sorted gaps, not np.unique's: np.unique imports numpy.ma.
        gaps = np.diff(np.sort(col[~np.isnan(col)]))
        gaps = gaps[gaps > 0]
        if len(gaps):
            floor[j] = max(gaps.min() / 2, FLOOR_MIN)
    known = ~np.isnan(X)
    x = np.where(known, X, 0.0)
    design = np.hstack([x * x, x, known, views["X_sym"] >= 0, views["onehot"]])
    sizes = np.array([len(a) for a in views["alphabets"]])
    return {"floor": floor, "design": design, "sizes": sizes}


def fit(splits: Sequence[BestRestSplit], ds: Dataset) -> TwoClassModel:
    """Fit class-conditional likelihood models to each run's best/rest split.

    The runs share the table, so one gather of every run's ranked rows
    and one `reduceat` over the [best, rest] stretch of each run give all
    the class sums, whatever each run's label count. Each run's weights
    are the ones a batch of that run alone gets, bit for bit: its rows
    are summed in its own order, and every other step is elementwise.
    """
    halves = [(split.k, len(split.ranked) - split.k) for split in splits]  # best, rest
    if not all(best and rest for best, rest in halves):
        raise ValueError("cannot fit a two-class model with an empty class")
    terms = table_terms(ds)
    design, floor = terms["design"], terms["floor"]
    p, q = len(floor), len(terms["sizes"])
    # Each class's sums of every design column: one gather of the labeled
    # rows, summed over each class's stretch of them (best then rest, run
    # by run).
    rows = design[np.concatenate([split.ranked for split in splits])]
    stretch = [size for half in halves for size in half]
    starts = np.cumsum([0] + stretch[:-1])
    sums = np.add.reduceat(rows, starts, axis=0)
    known = sums[:, 2 * p:3 * p]
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN: the class saw no value
        mean = sums[:, p:2 * p] / known
        # the sd in two passes, so a tight class keeps it through rounding
        dev = rows[:, p:2 * p] - mean.repeat(stretch, axis=0)
        dev *= rows[:, 2 * p:3 * p]
        sd = np.fmax(np.sqrt(np.add.reduceat(dev * dev, starts, axis=0) / known),
                     floor)
    sym_n, counts = sums[:, 3 * p:3 * p + q], sums[:, 3 * p + q:]
    # A class's log density of a numeric x is -x^2 / (2 sd^2) + x mean / sd^2
    # - mean^2 / (2 sd^2) - log sd - log(sqrt(2 pi)), the last term the
    # same for both classes; of a symbol, add-1 smoothed, it is
    # log(count + 1) - log(observed + alphabet size).
    prec = 1.0 / (sd * sd)
    mp = mean * prec
    # no cell of an empty alphabet is known, so any size will do for it
    sizes = np.maximum(terms["sizes"], 1)
    per_class = np.concatenate([-0.5 * prec, mp, -0.5 * mean * mp - np.log(sd),
                                -np.log(sym_n + sizes), np.log(counts + 1.0)], axis=1)
    weights = per_class[0::2] - per_class[1::2]
    # a numeric column either class never saw (NaN mean) adds nothing to d
    np.copyto(weights[:, :3 * p].reshape(len(splits), 3, p), 0.0,
              where=np.isnan(weights[:, None, p:2 * p]))
    return TwoClassModel(design=design, weights=weights, offset=np.array(
        [math.log(best / rest) for best, rest in halves]))


def acquire_tpe(m: TwoClassModel, pool: np.ndarray,
                fns: Sequence[str]) -> np.ndarray:
    """Each run's id maximizing its acquisition, as one id array.

    `pool` is a (runs, rows) mask of the rows each run may pick, and
    `fns[r]` run r's acquisition: exploit ranks by d = log B - log R,
    explore by -|d|. One matrix product scores the whole table for every
    run. Ties go to the lowest id among the pool rows scoring within
    TIE_REL of the run's top, taken relative to the sum of its weights'
    magnitudes plus its offset's. That sum bounds every |d|, since each
    design entry is in [0, 1], and it sets the scale of d's rounding, so
    rows whose true d are equal tie whatever order their terms are summed
    in, and a run's pick does not depend on the runs beside it.
    """
    if not pool.any(axis=1).all():
        raise ValueError("cannot acquire from an empty pool")
    unknown = set(fns) - set(ACQUIRES)
    if unknown:
        raise ValueError(f"unknown TPE acquisition {sorted(unknown)[0]!r}")
    score = m.weights @ m.design.T  # (runs, rows), each run's row contiguous
    score += m.offset[:, None]
    explore = [fn == "explore" for fn in fns]
    score[explore] = -np.abs(score[explore])
    score[~pool] = -np.inf
    tol = TIE_REL * (np.abs(m.weights).sum(axis=1) + np.abs(m.offset))
    # argmax of a boolean row is its first True: the lowest id that ties
    return (score >= (score.max(axis=1) - tol)[:, None]).argmax(axis=1)
