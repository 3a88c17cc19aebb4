"""Gaussian-process surrogate over labeled rows, with UCB / PI / EI.

Rows encode to fixed-length vectors (normalized numerics, one-hot
symbolics). The GP fits the scalarized target g = 1 - chebyshev so larger
is better and the acquisition formulas apply as maximizers. The kernel is
RBF with the signal variance pinned to the target variance; the length
scale comes from a small grid searched by log marginal likelihood.

Every function here takes row ids and returns them; no Row is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .data import Dataset, sample_ids
# chebyshev stays bound here because perfbench/tracer.py counts calls by it.
from .objective import chebyshev, reveal  # noqa: F401

ACQUIRES = ("ucb", "pi", "ei")
LENGTH_SCALE_GRID = (0.1, 0.3, 1.0, 3.0)
NOISE_VAR = 1e-6
JITTER_MAX = 1e-2
SIGNAL_VAR_FLOOR = 1e-12
POOL_CAP = 4096      # larger pools are scored on a seeded subsample
KAPPA = 2.0          # UCB exploration weight
EPSILON = 0.01       # PI/EI improvement margin over the incumbent


class GpFitError(RuntimeError):
    """Kernel matrix could not be factorized even after jitter escalation."""


def _encode_all(ds: Dataset) -> np.ndarray:
    views = ds.x_views()
    return np.hstack([np.nan_to_num(views["X_num"], nan=0.5), views["onehot"]])


def encode_rows(ds: Dataset, ids: np.ndarray) -> np.ndarray:
    """Encode rows by id: normalized values then one-hot blocks.

    Missing numerics sit at the 0.5 midpoint; a missing symbolic leaves
    its one-hot block all zero. The whole table is encoded once and
    shared by every copy of the dataset.
    """
    return ds.cached("gp_encoding", _encode_all)[ids]


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("GP inputs must not contain infs or NaNs")


def _tri_solve(L: np.ndarray, b: np.ndarray, transposed: bool = False,
               overwrite_b: bool = False) -> np.ndarray:
    """Solve L x = b, or L^T x = b when `transposed`, for a C-ordered
    lower-triangular L.

    This is the LAPACK call scipy.linalg.solve_triangular makes for such
    an L (it hands trtrs the F-ordered upper factor L.T), without that
    function's per-call validation, so the results are equal bit for bit.
    Callers check finiteness once per fit or predict.
    """
    x, info = dtrtrs(L.T, b, lower=False, trans=0 if transposed else 1,
                     overwrite_b=overwrite_b)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x


@dataclass
class GpModel:
    X: np.ndarray           # training inputs, one encoded row per line
    y_mean: float
    alpha: np.ndarray       # K^-1 (y - y_mean)
    L: np.ndarray           # Cholesky factor of K + jitter*I
    length_scale: float
    signal_var: float
    jitter: float
    log_marginal: float

    def predict_batch(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and sd at each query point (noise-free latent)."""
        _check_finite(Xs)
        ks = self.signal_var * np.exp(
            -cdist(Xs, self.X, "sqeuclidean") / (2.0 * self.length_scale ** 2))
        mu = self.y_mean + ks @ self.alpha
        v = _tri_solve(self.L, ks.T, overwrite_b=True)
        var = self.signal_var - np.einsum("ij,ij->j", v, v)
        return mu, np.sqrt(np.maximum(var, 0.0))


def _try_fit(X: np.ndarray, y: np.ndarray, sqdist: np.ndarray,
             length_scale: float, signal_var: float) -> GpModel:
    n = len(y)
    y_mean = float(y.mean())
    yc = y - y_mean
    k = signal_var * np.exp(-sqdist / (2.0 * length_scale ** 2))
    jitter = NOISE_VAR
    while True:
        try:
            L = np.linalg.cholesky(k + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_MAX * (1.0 + 1e-12):
                raise GpFitError(
                    f"kernel factorization failed up to jitter {JITTER_MAX}") from None
    alpha = _tri_solve(L, _tri_solve(L, yc), transposed=True)
    lml = (-0.5 * float(yc @ alpha)
           - float(np.log(np.diag(L)).sum())
           - 0.5 * n * math.log(2.0 * math.pi))
    return GpModel(X=X, y_mean=y_mean, alpha=alpha, L=L,
                   length_scale=length_scale, signal_var=signal_var,
                   jitter=jitter, log_marginal=lml)


def fit(X: np.ndarray, y: np.ndarray,
        length_scale: float | None = None) -> GpModel:
    """Fit a GP to raw vectors/targets.

    With length_scale=None LENGTH_SCALE_GRID is searched and the model
    with the highest log marginal likelihood wins (first winner on ties).
    Raises ValueError on non-finite inputs.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise ValueError(f"need at least 2 training points, got {len(y)}")
    _check_finite(X, y)
    signal_var = max(float(y.var()), SIGNAL_VAR_FLOOR)
    sqdist = cdist(X, X, "sqeuclidean")
    grid = LENGTH_SCALE_GRID if length_scale is None else (length_scale,)
    return max((_try_fit(X, y, sqdist, ls, signal_var) for ls in grid),
               key=lambda m: m.log_marginal)


def fit_gp(labeled: np.ndarray, ds: Dataset) -> GpModel:
    """Fit the surrogate to the labeled ids on the target g = 1 - chebyshev."""
    return fit(encode_rows(ds, labeled), 1.0 - reveal(labeled, ds))


def incumbent(labeled: np.ndarray, ds: Dataset) -> float:
    """Best scalarized objective among labeled ids (f* used by PI and EI)."""
    return float((1.0 - reveal(labeled, ds)).max())


def _scores(fn: str, mu: np.ndarray, sigma: np.ndarray,
            f_star: float) -> np.ndarray:
    """UCB mu + KAPPA * sigma; PI, the probability of beating f* by
    EPSILON; or EI, the expected improvement over f* + EPSILON. Where
    sigma is 0, PI is 1 or 0 by the sign of the gap and EI is 0."""
    if fn == "ucb":
        return mu + KAPPA * sigma
    d = mu - f_star - EPSILON
    safe = np.where(sigma > 0.0, sigma, 1.0)
    z = d / safe
    if fn == "pi":
        return np.where(sigma > 0.0, ndtr(z), (d > 0.0).astype(float))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(sigma > 0.0, d * ndtr(z) + sigma * pdf, 0.0)


def acquire_gp(model: GpModel, f_star: float, pool: np.ndarray, fn: str,
               ds: Dataset, rng=None) -> int:
    """The id in `pool` maximizing the acquisition.

    Pools larger than POOL_CAP are thinned to a seeded uniform subsample so
    prediction stays tractable on the biggest tables. Ties break toward
    the lowest row id regardless of pool order.
    """
    if len(pool) == 0:
        raise ValueError("cannot acquire from an empty pool")
    if fn not in ACQUIRES:
        raise ValueError(f"unknown GP acquisition {fn!r}")
    candidates = np.sort(pool)
    if len(candidates) > POOL_CAP:
        if rng is None:
            raise ValueError(f"pool of {len(candidates)} rows needs an rng to subsample")
        candidates = np.sort(sample_ids(rng, candidates, POOL_CAP))
    mu, sigma = model.predict_batch(encode_rows(ds, candidates))
    scores = _scores(fn, mu, sigma, f_star)
    return int(candidates[np.argmax(scores)])
