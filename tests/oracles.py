"""Reference forms of the vectorized code in src/mootopt, for tests.

The package scores whole tables at once. Most forms here work one row,
one column at a time, so tests can check the vectorized paths against a
formula that is easy to read; score_pool keeps the plain per-class
expression of the log ratio the package computes as one matrix product,
and gp_refit the from-scratch GP fit the package extends one row at a
time.
Nothing in the package imports this module.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from mootopt import gp
from mootopt.data import MAXIMIZE, NUMERIC, ColumnSpec, Dataset, NumStats, Row
from mootopt.likelihood import FLOOR_MIN
from mootopt.objective import BestRestSplit

EPS_DIV = 1e-30  # keeps the scalar acquisition ratios finite
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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

def sd_floor(values: np.ndarray) -> float:
    """A numeric column's sd floor from its normalized values: half the
    smallest gap between two distinct known values, one pair at a time,
    or FLOOR_MIN when that is finer or the column has no such gap."""
    distinct = sorted(set(float(v) for v in values if not math.isnan(v)))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    return max(min(gaps) / 2, FLOOR_MIN) if gaps else FLOOR_MIN


def class_numeric_stats(ids: np.ndarray, views: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and floored sd of a class, one column at a time."""
    num_pos = views["num_pos"]
    xn = views["X_num"][ids] if num_pos else np.empty((len(ids), 0))
    floor = [sd_floor(col) for col in views["X_num"].T]
    mean = np.full(len(num_pos), np.nan)
    sd = np.array(floor, dtype=float)
    for j in range(len(num_pos)):
        col = xn[:, j]
        known = col[~np.isnan(col)]
        if known.size:
            mean[j] = known.mean()
            sd[j] = max(known.std(), floor[j])
    return mean, sd


def class_symbol_counts(ids: np.ndarray, ds: Dataset) -> tuple[list[Counter], list[int]]:
    """Per symbolic column of a class: counts of each symbol, and the
    number of cells that are not missing, one row at a time."""
    sym_pos = ds.x_views()["sym_pos"]
    counts = [Counter(ds.rows[i].x[p] for i in ids if ds.rows[i].x[p] is not None)
              for p in sym_pos]
    return counts, [sum(c.values()) for c in counts]


@dataclass
class ClassStats:
    """A best/rest split's per-class statistics, index 0 best and 1 rest."""
    prior: list[float]
    mean: np.ndarray             # (2, n_num); NaN where the class saw no value
    sd: np.ndarray               # (2, n_num), floored at the column's sd floor
    counts: list[list[Counter]]  # per class, per symbolic column
    known: list[list[int]]       # per class, per symbolic column: observed cells


def class_stats(split: BestRestSplit, ds: Dataset) -> ClassStats:
    """The stats likelihood.fit summarizes a split by, from its two halves."""
    halves = (split.ranked[:split.k], split.ranked[split.k:])
    nums = [class_numeric_stats(ids, ds.x_views()) for ids in halves]
    syms = [class_symbol_counts(ids, ds) for ids in halves]
    return ClassStats(prior=[len(ids) / split.n for ids in halves],
                      mean=np.array([mean for mean, _ in nums]),
                      sd=np.array([sd for _, sd in nums]),
                      counts=[counts for counts, _ in syms],
                      known=[known for _, known in syms])


def design_weights(s: ClassStats, ds: Dataset) -> np.ndarray:
    """Each class's coefficient of every column of the naive-Bayes design,
    (2, n_cols), one column at a time: the terms _log_like_row sums,
    expanded in x and without the log sqrt(2 pi) both classes share."""
    views = ds.x_views()
    p = len(views["num_pos"])
    out = []
    for c in (0, 1):
        num = np.zeros((3, p))  # x^2, x and known coefficients per column
        for j in range(p):
            if not np.isnan(s.mean[:, j]).any():  # a column either class never saw adds 0
                mean, sd = s.mean[c, j], s.sd[c, j]
                num[:, j] = (-0.5 / sd ** 2, mean / sd ** 2,
                             -0.5 * mean ** 2 / sd ** 2 - math.log(sd))
        # no cell of an empty alphabet is known, so any size will do for it
        known = [-math.log(s.known[c][j] + max(len(alphabet), 1))
                 for j, alphabet in enumerate(views["alphabets"])]
        slots = [math.log(s.counts[c][j][v] + 1.0)
                 for j, alphabet in enumerate(views["alphabets"]) for v in alphabet]
        out.append(np.concatenate([num.ravel(), known, slots]))
    return np.array(out)


def _log_like_row(s: ClassStats, c: int, ds: Dataset, i: int) -> float:
    """Class c's (0 best, 1 rest) log prior plus log likelihood of row i."""
    views, row = ds.x_views(), ds.rows[i]
    lp = math.log(s.prior[c])
    for j, p in enumerate(views["num_pos"]):
        v = row.x[p]
        mean, sd = s.mean[c, j], s.sd[c, j]
        if v is None or np.isnan(s.mean[:, j]).any():
            continue  # a missing cell, or a column either class never saw, adds 0
        z = norm(ds.x_cols[p], float(v), ds)
        lp += -0.5 * ((z - mean) / sd) ** 2 - math.log(sd) - LOG_SQRT_2PI
    for j, p in enumerate(views["sym_pos"]):
        v = row.x[p]
        if v is None:
            continue  # a missing cell, so every cell of an empty alphabet, adds 0
        alphabet = views["alphabets"][j]
        lp += math.log((s.counts[c][j][v] + 1.0) / (s.known[c][j] + len(alphabet)))
    return lp


def likes(s: ClassStats, ds: Dataset, i: int) -> tuple[float, float]:
    """Likelihood pair (B, R) for row `i` of `ds`, computed in log space.

    The shared max log is subtracted before exponentiating, so at least one
    of the returned values is exactly 1 and both are finite.
    """
    lb = _log_like_row(s, 0, ds, i)
    lr = _log_like_row(s, 1, ds, i)
    top = max(lb, lr)
    return math.exp(lb - top), math.exp(lr - top)


def log_ratio(s: ClassStats, ds: Dataset, i: int) -> float:
    """d = log B - log R for row `i`, one cell at a time."""
    return _log_like_row(s, 0, ds, i) - _log_like_row(s, 1, ds, i)


def score_pool(s: ClassStats, ds: Dataset, ids: np.ndarray) -> np.ndarray:
    """d = log B - log R over a pool, as one plain numpy expression per
    class: each Gaussian term in its centered form, summed per row."""
    views = ds.x_views()
    usable = ~np.isnan(s.mean).any(axis=0)

    def log_like(c: int) -> np.ndarray:
        lp = np.full(len(ids), math.log(s.prior[c]))
        xn = views["X_num"][ids][:, usable]
        mean, sd = s.mean[c, usable], s.sd[c, usable]
        terms = -0.5 * ((xn - mean) / sd) ** 2 - np.log(sd) - LOG_SQRT_2PI
        lp += np.where(np.isnan(xn), 0.0, terms).sum(axis=1)
        for j, alphabet in enumerate(views["alphabets"]):
            if not alphabet:
                continue  # no cell of the column was observed: it adds nothing
            codes = views["X_sym"][ids, j]
            counts = np.array([s.counts[c][j][v] for v in alphabet], dtype=float)
            logp = np.log((counts + 1.0) / (s.known[c][j] + len(alphabet)))
            lp += np.where(codes >= 0, logp[np.maximum(codes, 0)], 0.0)
        return lp

    return log_like(0) - log_like(1)


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

def encode_row(ds: Dataset, i: int) -> np.ndarray:
    return gp.encode_table(ds)[i]


@dataclass
class GpRefit:
    """A GP fitted from scratch to all its training rows at once: GPML's
    Algorithm 2.1 (Rasmussen & Williams 2006) on K = s (R + j I), the
    kernel gp.GpModel extends one bordered row at a time."""
    X: np.ndarray           # training inputs, one encoded row per line
    y_mean: float
    alpha: np.ndarray       # K^-1 (y - y_mean)
    L: np.ndarray           # Cholesky factor of K
    length_scale: float
    signal_var: float
    jitter: float           # j, relative to signal_var
    log_marginal: float

    def predict_batch(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and sd at each query point (noise-free latent)."""
        _check_finite(Xs)
        ks = self.signal_var * np.exp(
            -cdist(Xs, self.X, "sqeuclidean") / (2.0 * self.length_scale ** 2))
        mu = self.y_mean + ks @ self.alpha
        v = solve_triangular(self.L, ks.T, lower=True)
        var = self.signal_var - np.einsum("ij,ij->j", v, v)
        return mu, np.sqrt(np.maximum(var, 0.0))


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("GP inputs must not contain infs or NaNs")


def _refit_at(X: np.ndarray, y: np.ndarray, length_scale: float,
              signal_var: float) -> GpRefit:
    n = len(y)
    y_mean = float(y.mean())
    yc = y - y_mean
    R = np.exp(-cdist(X, X, "sqeuclidean") / (2.0 * length_scale ** 2))
    jitter = gp.NOISE_VAR
    while True:
        K = signal_var * (R + jitter * np.eye(n))
        try:
            L = np.linalg.cholesky(K)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > gp.JITTER_MAX * (1.0 + 1e-12):
                raise gp.GpFitError("kernel factorization failed") from None
    alpha = cho_solve((L, True), yc)
    # One step of iterative refinement against K itself, the residual in
    # extended precision: on near-singular kernels (repeated encodings make
    # R + jI condition about 1e7) one double-precision solve is off by more
    # than the 1e-9 the posterior tests allow.
    residual = yc.astype(np.longdouble) - K.astype(np.longdouble) @ alpha
    alpha = alpha + cho_solve((L, True), residual.astype(float))
    lml = (-0.5 * float(yc @ alpha)
           - float(np.log(np.diag(L)).sum())
           - 0.5 * n * math.log(2.0 * math.pi))
    return GpRefit(X=X, y_mean=y_mean, alpha=alpha, L=L,
                   length_scale=length_scale, signal_var=signal_var,
                   jitter=jitter, log_marginal=lml)


def gp_refit(X: np.ndarray, y: np.ndarray,
             length_scale: float | None = None) -> GpRefit:
    """Fit a GP to raw vectors and targets from scratch.

    With length_scale=None gp.LENGTH_SCALE_GRID is searched and the fit
    with the highest log marginal likelihood wins (first winner on ties).
    """
    X = np.asarray(X, dtype=float).reshape(len(y), -1)
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise ValueError(f"need at least 2 training points, got {len(y)}")
    _check_finite(X, y)
    signal_var = max(float(y.var()), gp.SIGNAL_VAR_FLOOR)
    grid = gp.LENGTH_SCALE_GRID if length_scale is None else (length_scale,)
    return max((_refit_at(X, y, ls, signal_var) for ls in grid),
               key=lambda m: m.log_marginal)


def predict(model: GpRefit, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and sd at one point."""
    mu, sigma = model.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))
    return float(mu[0]), float(sigma[0])


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z: float) -> float:
    # erfc keeps the lower tail's digits that 1 + erf(z / sqrt 2) cancels
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


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
