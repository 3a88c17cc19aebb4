"""Reference forms of the vectorized code in src/mootopt, for tests.

The package scores whole pools and whole tables at once. Most forms here
work one row, one column at a time, so tests can check the vectorized
paths against a formula that is easy to read; score_pool keeps the plain
expression that the package's in-place pool scoring must match bit for
bit. Nothing in the package imports this module.
"""

import math

import numpy as np

from mootopt import gp
from mootopt.data import MAXIMIZE, NUMERIC, ColumnSpec, Dataset, NumStats, Row
from mootopt.likelihood import (EPS_DIV, LOG_SQRT_2PI, SD_FLOOR, ClassStats,
                                TwoClassModel)


# -- cell encoding and distance ----------------------------------------------------

def norm(col: ColumnSpec, v: float, ds: Dataset) -> float:
    """Map one numeric value into [0,1] using the column's observed range.

    Degenerate columns (hi == lo) map everything to 0.5 so they drop
    out of distances; out-of-range values clamp.
    """
    st = ds.stats[col.index]
    if not isinstance(st, NumStats):
        raise ValueError(f"norm() needs a numeric column, got {col.name!r}")
    if st.hi == st.lo:
        return 0.5
    return min(1.0, max(0.0, (v - st.lo) / (st.hi - st.lo)))


def x_distance(a: Row, b: Row, ds: Dataset) -> float:
    """Euclidean distance over independent columns.

    Numeric cells compare after normalization; symbolic cells contribute
    0 when equal else 1; whenever either cell is missing the column
    contributes 1 (pessimistic, keeps the distance bounded).
    """
    total = 0.0
    for i, col in enumerate(ds.x_cols):
        va, vb = a.x[i], b.x[i]
        if va is None or vb is None:
            d = 1.0
        elif col.kind == NUMERIC:
            d = norm(col, float(va), ds) - norm(col, float(vb), ds)
        else:
            d = 0.0 if va == vb else 1.0
        total += d * d
    return math.sqrt(total)


def squared_distances(e1, ids: np.ndarray, ds: Dataset) -> np.ndarray:
    """warmstart.squared_distances, one synthetic row and one column at a
    time, adding each column's terms to a running total in column order
    (numeric, then symbolic). The package's sum must match it bit for bit.
    """
    views = ds.x_views()
    X_num = views["X_num"][ids]
    X_sym = views["X_sym"][ids]
    out = np.zeros((len(e1), len(ids)))
    for i, sr in enumerate(e1):
        d2 = out[i]
        for j, pos in enumerate(views["num_pos"]):
            v = sr.cells[pos]
            col_vals = X_num[:, j]
            if v is None:
                d2 += 1.0
            else:
                gap = np.abs(col_vals - norm(ds.x_cols[pos], float(v), ds))
                d2 += np.where(np.isnan(col_vals), 1.0, gap * gap)
        for j, pos in enumerate(views["sym_pos"]):
            v = sr.cells[pos]
            code = views["alphabets"][j].index(v) if v in views["alphabets"][j] else -2
            d2 += np.where(X_sym[:, j] == code, 0.0, 1.0)
    return out


# -- objective -----------------------------------------------------------------

def chebyshev(row: Row, ds: Dataset) -> float:
    """Max normalized gap between a row's goals and the ideal point,
    through norm() one goal at a time. Ignores the label state."""
    worst = 0.0
    for i, col in enumerate(ds.y_cols):
        v = row.y[i]
        if v is None:
            gap = 1.0  # missing goal counts as maximally bad
        else:
            target = 1.0 if col.direction == MAXIMIZE else 0.0
            gap = abs(norm(col, float(v), ds) - target)
        worst = max(worst, gap)
    return worst


# -- naive Bayes -------------------------------------------------------------------

def class_numeric_stats(rows: list[Row], views: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and floored sd of a class, one column at a time."""
    num_pos = views["num_pos"]
    ids = np.array([r.id for r in rows], dtype=np.int64)
    xn = views["X_num"][ids] if num_pos else np.empty((len(ids), 0))
    mean = np.full(len(num_pos), np.nan)
    sd = np.full(len(num_pos), SD_FLOOR)
    for j in range(len(num_pos)):
        col = xn[:, j]
        known = col[~np.isnan(col)]
        if known.size:
            mean[j] = known.mean()
            sd[j] = max(known.std(), SD_FLOOR)
    return mean, sd


def _log_like_row(cs: ClassStats, m: TwoClassModel, row: Row) -> float:
    views, ds = m.views, m.ds
    lp = math.log(cs.prior)
    for j, p in enumerate(views["num_pos"]):
        v = row.x[p]
        if v is None or math.isnan(cs.num_mean[j]):
            continue  # missing cell (or no class data) contributes factor 1
        z = norm(ds.x_cols[p], float(v), ds)
        sd = cs.num_sd[j]
        lp += -0.5 * ((z - cs.num_mean[j]) / sd) ** 2 - math.log(sd) - LOG_SQRT_2PI
    for j, p in enumerate(views["sym_pos"]):
        v = row.x[p]
        if v is None:
            continue
        alphabet = views["alphabets"][j]
        try:
            count = cs.sym_counts[j][alphabet.index(v)]
        except ValueError:
            count = 0.0  # value unseen at load
        lp += math.log((count + 1.0) / (cs.sym_n[j] + len(alphabet)))
    return lp


def likes(m: TwoClassModel, row: Row) -> tuple[float, float]:
    """Likelihood pair (B, R) for one row, computed in log space.

    The shared max log is subtracted before exponentiating, so at least one
    of the returned values is exactly 1 and both are finite.
    """
    lb = _log_like_row(m.best, m, row)
    lr = _log_like_row(m.rest, m, row)
    top = max(lb, lr)
    return math.exp(lb - top), math.exp(lr - top)


def score_pool(m: TwoClassModel, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, R) over a pool, as one plain numpy expression per class.

    Not a scalar form: its float operations, and the memory order that
    fixes numpy's summation order, are the ones the package's in-place
    version must reproduce bit for bit.
    """
    def log_like(cs: ClassStats) -> np.ndarray:
        views = m.views
        lp = np.full(len(ids), math.log(cs.prior))
        xn = views["X_num"][ids]
        usable = ~np.isnan(cs.num_mean)
        if usable.any():
            xn = xn[:, usable]
            mean, sd = cs.num_mean[usable], cs.num_sd[usable]
            terms = -0.5 * ((xn - mean) / sd) ** 2 - np.log(sd) - LOG_SQRT_2PI
            lp += np.where(np.isnan(xn), 0.0, terms).sum(axis=1)
        for j, alphabet in enumerate(views["alphabets"]):
            codes = views["X_sym"][ids, j]
            logp = np.log((cs.sym_counts[j] + 1.0) / (cs.sym_n[j] + len(alphabet)))
            lp += np.where(codes >= 0, logp[np.maximum(codes, 0)], 0.0)
        return lp

    lb, lr = log_like(m.best), log_like(m.rest)
    top = np.maximum(lb, lr)
    return np.exp(lb - top), np.exp(lr - top)


def exploit(b: float, r: float) -> float:
    """Score for the zone of certainty: large when both models agree on best."""
    return b / (r + EPS_DIV)


def explore(b: float, r: float) -> float:
    """Score for the zone of dispute: peaks where B and R are similar but large.

    Uses |B - R| in the denominator; the signed form is kept in
    `explore_signed` for comparison.
    """
    return abs(b + r) / (abs(b - r) + EPS_DIV)


def explore_signed(b: float, r: float) -> float:
    """The signed-denominator variant |B+R| / ((B-R) + eps).

    Goes negative when R > B, which makes it unusable as an argmax target;
    kept only so the two readings can be compared side by side.
    """
    return abs(b + r) / ((b - r) + EPS_DIV)


ACQUISITIONS = {"exploit": exploit, "explore": explore}


# -- gaussian process ---------------------------------------------------------------

def encode_row(ds: Dataset, row: Row) -> np.ndarray:
    return gp.encode_rows(ds, [row])[0]


def predict(model: gp.GpModel, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and sd at one point."""
    mu, sigma = model.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))
    return float(mu[0]), float(sigma[0])


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def ucb(mu: float, sigma: float, kappa: float = gp.KAPPA) -> float:
    """Upper confidence bound mu + kappa * sigma."""
    return mu + kappa * sigma


def pi(mu: float, sigma: float, f_star: float,
       epsilon: float = gp.EPSILON) -> float:
    """Probability that a sample improves on the incumbent by epsilon."""
    d = mu - f_star - epsilon
    if sigma == 0.0:
        return 1.0 if d > 0.0 else 0.0
    return _cdf(d / sigma)


def ei(mu: float, sigma: float, f_star: float,
       epsilon: float = gp.EPSILON) -> float:
    """Expected improvement over the incumbent; exactly 0 when sigma is 0."""
    if sigma == 0.0:
        return 0.0
    d = mu - f_star - epsilon
    z = d / sigma
    return d * _cdf(z) + sigma * _phi(z)


GP_ACQUISITIONS = {"ucb": ucb, "pi": pi, "ei": ei}


def gp_score(fn: str, mu: float, sigma: float, f_star: float) -> float:
    """The package's vectorized acquisition at a single point, at
    gp.KAPPA and gp.EPSILON, for checking it against the scalar forms
    above."""
    out = gp._scores(fn, np.array([mu]), np.array([sigma]), f_star)
    return float(out[0])
