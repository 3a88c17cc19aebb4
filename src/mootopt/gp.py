"""Gaussian-process surrogate over labeled rows, with UCB / PI / EI.

Rows encode to fixed-length vectors (normalized numerics, one-hot
symbolics). The GP fits the scalarized target g = 1 - chebyshev so larger
is better and the acquisition formulas apply as maximizers. The kernel is
K = s (R + j I): an RBF correlation R, the target variance s and a noise
j relative to s. The length scale comes from a small grid searched by log
marginal likelihood. R + j I depends on the labeled rows alone, so a run
keeps one posterior and each label borders its Cholesky factor by one
row (Rasmussen & Williams 2006, Alg. 2.1; Golub & Van Loan).
EI's normal CDF `ndtr` ports scipy's Cephes routine to numpy; PI ranks
by z and needs no CDF.

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
NOISE_VAR = 1e-6     # noise j, relative to the signal variance: K = s (R + j I)
SIGNAL_VAR_FLOOR = 1e-12
KAPPA = 2.0          # UCB exploration weight
EPSILON = 0.01       # PI/EI improvement margin over the incumbent
CAPACITY = 32        # rows a posterior holds before its arrays double

# EI's normal CDF is Cephes' ndtr as scipy ships it (Moshier; Cody 1969). With
# x = a / sqrt(2), erf(x) = x T(x^2) / U(x^2) for |x| < 1, and erfc(x) is
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) from 8, and 0
# once x^2 > MAXLOG. Coefficients run from the highest power.
ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
         7.00332514112805075473e3, 5.55923013010394962768e4)
ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
         2.26290000613890934246e4, 4.92673942608635921086e4)
ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
          6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
          1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
MAXLOG = 7.09782712893383996843e2
# Column k: range k's numerator + 1j * its monic denominator, zero-padded in
# front to nine terms, so one Horner pass runs both as polevl and p1evl do.
_PADDED = np.array([[(0.0,) * (9 - len(c)) + c for c in pair] for pair in
                    ((ERF_T, ERF_U), (ERFC_P, ERFC_Q), (ERFC_R, ERFC_S))])
CEPHES = np.ascontiguousarray((_PADDED[:, 0] + 1j * _PADDED[:, 1]).T)


class GpFitError(RuntimeError):
    """A pivot of R + j I was not positive. In exact arithmetic each is at
    least j, so only a non-finite encoded row, or a j too small to change
    1 + j, gets here."""


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
        self.y = []  # added rows' targets, in order
        self.held = np.zeros(rows, dtype=bool)
        self.V = np.zeros((g, CAPACITY, rows))
        self.ab = np.zeros((g, CAPACITY, 2))
        self.S = np.zeros((g, rows))
        self.log_det = np.zeros(g)

    def extend(self, ids: np.ndarray, y: np.ndarray) -> None:
        """Add rows `ids` of `encoded`, in order, with targets `y`; then pick
        the scale of highest log marginal likelihood (first on ties)."""
        for i, target in zip(ids.tolist(), y.tolist()):
            n = len(self.y)
            if n == self.V.shape[1]:
                self.V, self.ab = (np.concatenate([m, np.zeros_like(m)], axis=1)
                                   for m in (self.V, self.ab))
            self._border(n, i, target)
            self.y.append(target)
            self.held[i] = True
        self._select()

    def _border(self, n: int, i: int, target: float) -> None:
        """Make row i row n of every scale's factors, from one squared
        distance vector they share. A pivot that is not positive (or NaN)
        raises GpFitError before any factor changes."""
        diff = self.encoded - self.encoded[i]
        sq = np.einsum("ij,ij->i", diff, diff)
        V = self.V[:, :n]
        border = V[:, :, i]  # L^-1 R(X, x_i)
        pivot = 1.0 + NOISE_VAR - np.einsum("kn,kn->k", border, border)
        if not (pivot > 0.0).all():
            raise GpFitError("a kernel pivot is not positive")
        d = np.sqrt(pivot)
        v = (np.exp(-sq * self.inv_2l2[:, None])
             - np.matmul(border[:, None, :], V)[:, 0]) / d[:, None]
        self.V[:, n] = v
        self.S += v * v
        ab = np.einsum("kn,knc->kc", border, self.ab[:, :n])
        self.ab[:, n] = ((target, 1.0) - ab) / d[:, None]
        self.log_det += np.log(d)

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
    if len(labeled) - len(new) != len(model.y):
        raise ValueError("the posterior holds rows that are not labeled")
    model.extend(new, 1.0 - reveal(new, ds))
    return model


def incumbent(model: GpModel) -> float:
    """f* for PI and EI: the best target the posterior holds."""
    return max(model.y)


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, in Cephes' operation order: 0.5 + 0.5 erf(x)
    for |x| < 1, else 0.5 erfc(|x|), or 1 minus it for x > 0. Each element
    takes its own range's rational; a complex Horner pass carries numerator
    and denominator at once, exactly, as x's imaginary part is zero."""
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    near = z < 1.0
    zc = np.minimum(z, 27.0)  # 27 * 27 > MAXLOG, so a capped erfc is still 0
    sq = zc * zc
    u = np.where(near, sq, zc).astype(complex)
    pq, *coefs = CEPHES.take(np.add(~near, z >= 8.0, dtype=np.intp), axis=1)
    for c in coefs:
        pq *= u
        pq += c
    f = np.where(near, x, np.exp(-sq) * (sq <= MAXLOG))
    half = 0.5 * (f * pq.real / pq.imag)
    return np.where(near, 0.5 + half, np.where(x > 0.0, 1.0 - half, half))


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
