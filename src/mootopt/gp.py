"""Gaussian-process surrogate over labeled rows, with UCB / PI / EI.

Rows encode to fixed-length vectors (normalized numerics, one-hot
symbolics). The GP fits the scalarized target g = 1 - chebyshev so larger
is better and the acquisition formulas apply as maximizers. The kernel is
K = s (R + j I): an RBF correlation R, the target variance s and a noise
j relative to s. The length scale comes from a small grid searched by log
marginal likelihood. R + j I depends on the labeled rows alone, so a run
keeps one posterior and each label borders its Cholesky factor by one
row (Rasmussen & Williams 2006, Alg. 2.1; Golub & Van Loan).
EI imports scipy's normal CDF at its first score, nothing sooner; PI
ranks by z and needs no CDF.

Every function here takes row ids and returns them; no Row is read.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
# chebyshev stays bound here because perfbench/tracer.py counts calls by it.
from .objective import chebyshev, reveal  # noqa: F401

ACQUIRES = ("ucb", "pi", "ei")
LENGTH_SCALE_GRID = (0.1, 0.3, 1.0, 3.0)
NOISE_VAR = 1e-6     # jitter j, relative to the signal variance: K = s (R + j I)
JITTER_MAX = 1e-2
SIGNAL_VAR_FLOOR = 1e-12
KAPPA = 2.0          # UCB exploration weight
EPSILON = 0.01       # PI/EI improvement margin over the incumbent
CAPACITY = 32        # rows a posterior holds before its arrays double


class GpFitError(RuntimeError):
    """Kernel matrix could not be factorized even after jitter escalation."""


def encode_table(ds: Dataset) -> np.ndarray:
    """Every row of the table as normalized values then one-hot blocks. A
    missing numeric sits at the 0.5 midpoint; a missing symbolic leaves
    its one-hot block all zero."""
    views = ds.x_views()
    return np.hstack([np.nan_to_num(views["X_num"], nan=0.5), views["onehot"]])


class GpModel:
    """One run's posterior over rows of `encoded` (in a run, the table).

    With X the n rows added so far and L the Cholesky factor of
    R(X, X) + j I, it keeps per grid length scale, stacked on axis 0:
    V = L^-1 R(X, encoded), S its column sums of squares, ab = L^-1 [y 1]
    and log_det = sum log diag L. L is not kept: a new row i's border is
    V[:, :, i]. V takes 4 floats per added and encoded row pair.
    """

    def __init__(self, encoded: np.ndarray):
        g, rows = len(LENGTH_SCALE_GRID), len(encoded)
        self.encoded = encoded
        self.inv_2l2 = 0.5 / np.square(LENGTH_SCALE_GRID)
        self.jitter = np.full(g, NOISE_VAR)
        self.ids, self.y = [], []  # added rows and their targets, in order
        self.held = np.zeros(rows, dtype=bool)
        self.V = np.zeros((g, CAPACITY, rows))
        self.ab = np.zeros((g, CAPACITY, 2))
        self.S = np.zeros((g, rows))
        self.log_det = np.zeros(g)

    def extend(self, ids: np.ndarray, y: np.ndarray) -> None:
        """Add rows `ids` of `encoded`, in order, with targets `y`; then pick
        the scale of highest log marginal likelihood (first on ties)."""
        for i, target in zip(ids.tolist(), y.tolist()):
            n = len(self.ids)
            if n == self.V.shape[1]:
                self.V, self.ab = (np.concatenate([m, np.zeros_like(m)], axis=1)
                                   for m in (self.V, self.ab))
            self.ids.append(i)
            self.y.append(target)
            self.held[i] = True
            for k in np.flatnonzero(~self._border(slice(None), n, i, target)):
                self._refactor(k)
        self._select()

    def _border(self, ks: slice, n: int, i: int, target: float) -> np.ndarray:
        """Make row i row n of the factors of scales `ks`, from one squared
        distance vector they share. Returns, per scale, whether its pivot
        was positive; a scale whose pivot was not is left for _refactor."""
        diff = self.encoded - self.encoded[i]
        sq = np.einsum("ij,ij->i", diff, diff)
        V = self.V[ks, :n]
        border = V[:, :, i]  # L^-1 R(X, x_i)
        pivot = 1.0 + self.jitter[ks] - np.einsum("kn,kn->k", border, border)
        ok = pivot > 0.0
        d = np.sqrt(np.where(ok, pivot, 1.0))
        v = (np.exp(-sq * self.inv_2l2[ks, None])
             - np.matmul(border[:, None, :], V)[:, 0]) / d[:, None]
        self.V[ks, n] = v
        self.S[ks] += v * v
        ab = np.einsum("kn,knc->kc", border, self.ab[ks, :n])
        self.ab[ks, n] = ((target, 1.0) - ab) / d[:, None]
        self.log_det[ks] += np.log(d)
        return ok

    def _refactor(self, k: int) -> None:
        """Rebuild scale k from an empty factor at ten times its jitter,
        until every pivot is positive; past JITTER_MAX raise GpFitError."""
        while True:
            self.jitter[k] *= 10.0
            if self.jitter[k] > JITTER_MAX * (1.0 + 1e-12):
                raise GpFitError(f"kernel factorization failed up to jitter {JITTER_MAX}")
            self.S[k] = self.log_det[k] = 0.0
            if all(self._border(slice(k, k + 1), n, i, target)[0]
                   for n, (i, target) in enumerate(zip(self.ids, self.y))):
                return

    def _select(self) -> None:
        """Centre the targets, set the signal variance, and keep the scale
        of the highest log marginal likelihood, all in O(n) per scale."""
        n = len(self.y)
        self.y_mean = math.fsum(self.y) / n
        self.signal_var = max(math.fsum((v - self.y_mean) ** 2 for v in self.y) / n,
                              SIGNAL_VAR_FLOOR)
        z = self.ab[:, :n, 0] - self.y_mean * self.ab[:, :n, 1]  # L^-1 (y - y_mean)
        self.log_marginal = (-0.5 * np.einsum("kn,kn->k", z, z) / self.signal_var
                             - self.log_det
                             - 0.5 * n * math.log(2.0 * math.pi * self.signal_var))
        self.scale = int(np.argmax(self.log_marginal))
        self.z = z[self.scale]

    def posterior(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sd of the noise-free latent at rows `ids` of `encoded`,
        at the selected length scale: y_mean + z^T V and s (1 - S)."""
        k, n = self.scale, len(self.y)
        mu = self.y_mean + (self.z @ self.V[k, :n])[ids]
        var = self.signal_var * (1.0 - self.S[k, ids])
        return mu, np.sqrt(np.maximum(var, 0.0))


def fit_gp(labeled: np.ndarray, ds: Dataset, model: GpModel | None = None) -> GpModel:
    """The posterior over the labeled ids, on the target g = 1 - chebyshev:
    `model`, from a run's previous step, extended in place by the ids
    labeled since, in id order, or a new one over the table's encoding."""
    if len(labeled) < 2:
        raise ValueError(f"need at least 2 training points, got {len(labeled)}")
    if model is None:
        model = GpModel(ds.cached(encode_table))
    new = labeled[~model.held[labeled]]
    if len(labeled) - len(new) != len(model.ids):
        raise ValueError("the posterior holds rows that are not labeled")
    model.extend(new, 1.0 - reveal(new, ds))
    return model


def incumbent(labeled: np.ndarray, ds: Dataset) -> float:
    """Best scalarized objective among labeled ids (f* used by PI and EI)."""
    return float((1.0 - reveal(labeled, ds)).max())


def _scores(fn: str, mu: np.ndarray, sigma: np.ndarray, f_star: float) -> np.ndarray:
    """UCB mu + KAPPA * sigma; PI ranked by z = (mu - f* - EPSILON) / sigma,
    since the probability of beating f* by EPSILON is Phi(z) and Phi
    increases; or EI, the expected improvement over f* + EPSILON. Where
    sigma is 0, PI's z is +inf or -inf by the sign of the gap and EI is 0."""
    if fn == "ucb":
        return mu + KAPPA * sigma
    d = mu - f_star - EPSILON
    z = d / np.where(sigma > 0.0, sigma, 1.0)
    if fn == "pi":
        return np.where(sigma > 0.0, z, np.where(d > 0.0, np.inf, -np.inf))
    from scipy.special import ndtr  # about 0.3 s, so only EI pays it
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(sigma > 0.0, d * ndtr(z) + sigma * pdf, 0.0)


def acquire_gp(model: GpModel, f_star: float, pool: np.ndarray, fn: str) -> int:
    """The id in `pool` maximizing the acquisition; ties break toward the
    lowest row id regardless of pool order."""
    if len(pool) == 0:
        raise ValueError("cannot acquire from an empty pool")
    if fn not in ACQUIRES:
        raise ValueError(f"unknown GP acquisition {fn!r}")
    candidates = np.sort(pool)
    mu, sigma = model.posterior(candidates)
    return int(candidates[np.argmax(_scores(fn, mu, sigma, f_star))])
