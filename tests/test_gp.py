"""Gaussian-process surrogate: kernel algebra, acquisitions, pool scoring."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import gp_posterior, label_ids
from mootopt import gp
from mootopt.data import load_csv
from mootopt.objective import chebyshev, reveal


# -- encoding ----------------------------------------------------------------

def test_encode_norm_then_one_hot(make_ds):
    ds = make_ds("""
        N,kind,Cost-
        0,a,1
        10,b,2
        5,a,3
        ?,b,4
        0,?,5
    """)
    X = gp.encode_table(ds)
    want = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.5, 1.0, 0.0],
        [0.5, 0.0, 1.0],   # missing numeric parks at the midpoint
        [0.0, 0.0, 0.0],   # missing symbol leaves its block cold
    ])
    assert np.allclose(X, want)
    assert np.allclose(oracles.encode_row(ds, 2), want[2])


# -- fitting -----------------------------------------------------------------

@pytest.fixture
def unit_scale(monkeypatch):
    """Pin the length-scale grid to 1.0 for posteriors built after it."""
    monkeypatch.setattr(gp, "LENGTH_SCALE_GRID", (1.0,))


def test_two_point_posterior_matches_linear_algebra_oracle(unit_scale):
    """Closed-form check on the smallest nontrivial fit.

    X = {0, 1}, y = {0, 1}, unit length scale. signal_var = var(y) = 0.25,
    so K = 0.25 * (exp(-d^2/2) + 1e-6 I), and the posterior at 0.5
    follows from one 2x2 solve.
    """
    _, mu, sd = gp_posterior([[0.0], [1.0]], [0.0, 1.0], [[0.5]])
    K = 0.25 * (np.exp(-np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0) + 1e-6 * np.eye(2))
    ks = 0.25 * np.exp(-np.array([0.25, 0.25]) / 2.0)
    mu_want = 0.5 + ks @ np.linalg.solve(K, np.array([-0.5, 0.5]))
    var_want = 0.25 - ks @ np.linalg.solve(K, ks)
    assert mu[0] == pytest.approx(mu_want, abs=1e-9)
    assert sd[0] == pytest.approx(math.sqrt(var_want), abs=1e-9)
    assert mu[0] == pytest.approx(0.5, abs=1e-9)  # symmetry


def test_non_finite_inputs_are_rejected():
    """A non-finite encoded row makes every pivot NaN, which no jitter
    rung repairs, so training on it fails loudly."""
    with pytest.raises(gp.GpFitError):
        gp_posterior([[0.0], [np.nan]], [0.0, 1.0], [[0.5]])


def test_grid_search_keeps_the_highest_marginal_likelihood():
    """Each scale's log marginal likelihood matches a from-scratch fit at
    that scale, and the posterior keeps the highest."""
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(12, 1))
    y = np.sin(3.0 * X[:, 0])
    model, _, _ = gp_posterior(X, y, np.empty((0, 1)))
    fits = [oracles.gp_refit(X, y, length_scale=ls) for ls in gp.LENGTH_SCALE_GRID]
    want = np.array([m.log_marginal for m in fits])
    assert np.allclose(model.log_marginal, want, rtol=1e-9, atol=1e-9)
    assert (gp.LENGTH_SCALE_GRID[model.scale]
            == max(fits, key=lambda m: m.log_marginal).length_scale)
    assert model.log_marginal[model.scale] == model.log_marginal.max()


def test_posterior_interpolates_noiseless_training_points():
    X = np.linspace(0, 1, 6).reshape(-1, 1)
    y = np.sin(2.0 * X[:, 0])
    _, mu, sd = gp_posterior(X, y, X)
    assert np.max(np.abs(mu - y)) < 2e-3
    assert np.max(sd) < 1e-2


def test_duplicate_inputs_average_their_targets(unit_scale):
    _, mu, _ = gp_posterior([[0.0], [0.0], [1.0]], [0.0, 0.2, 1.0], [[0.0]])
    assert abs(mu[0] - 0.1) < 0.05


def test_posterior_reverts_to_the_prior_far_away(unit_scale):
    y = np.array([0.3, 0.5, 0.7, 0.9])
    model, mu, sd = gp_posterior([[0.0], [0.2], [0.4], [0.6]], y, [[1e3]])
    assert mu[0] == pytest.approx(float(y.mean()), abs=1e-6)
    assert sd[0] == pytest.approx(math.sqrt(model.signal_var), abs=1e-6)


def test_fit_needs_two_points(auto93):
    with pytest.raises(ValueError):
        gp.fit_gp(label_ids(auto93, [0]), auto93)


def test_fit_gp_refuses_a_posterior_holding_unlabeled_rows(auto93):
    model = gp.fit_gp(label_ids(auto93, range(6)), auto93)
    with pytest.raises(ValueError):
        gp.fit_gp(np.arange(1, 6), auto93, model)


def test_unsalvageable_kernel_raises_gp_fit_error(monkeypatch):
    """Relative noise keeps every pivot of R + j I at least j, so the
    failure is forced: at j = 1e-20, 1 + j rounds to 1, the pivot of a
    duplicate row is exactly 0, and the ladder stops at 1e-18."""
    monkeypatch.setattr(gp, "NOISE_VAR", 1e-20)
    monkeypatch.setattr(gp, "JITTER_MAX", 1e-18)
    with pytest.raises(gp.GpFitError):
        gp_posterior([[0.0], [0.0]], [0.0, 1.0], np.empty((0, 1)))


def test_jitter_ladder_settles_on_a_larger_jitter_that_factorizes(monkeypatch):
    """From j = 1e-20 a duplicate row's pivot is 0 until 1 + j exceeds 1
    in floating point; each scale is rebuilt at ten times its jitter until
    every pivot is positive, and the posterior is then finite."""
    monkeypatch.setattr(gp, "NOISE_VAR", 1e-20)
    model, mu, sd = gp_posterior([[0.0], [0.0], [1.0]], [0.0, 1.0, 0.5],
                                 [[0.0], [0.5], [3.0]])
    assert (1e-20 < model.jitter).all() and (model.jitter <= gp.JITTER_MAX).all()
    assert np.isfinite(mu).all() and np.isfinite(sd).all()
    assert np.isfinite(model.log_marginal).all()


def test_posterior_outgrows_its_capacity(auto93, monkeypatch):
    """Past CAPACITY rows the arrays double, and the posterior still
    agrees with a from-scratch fit."""
    monkeypatch.setattr(gp, "CAPACITY", 2)
    auto93.label(0)
    model = None
    for i in range(1, 7):
        auto93.label(i)
        model = gp.fit_gp(auto93.labeled_ids(), auto93, model)
    labeled = auto93.labeled_ids()
    ref = oracles.gp_refit(gp.encode_table(auto93)[labeled], 1.0 - reveal(labeled, auto93),
                           length_scale=gp.LENGTH_SCALE_GRID[model.scale])
    mu, sd = model.posterior(np.arange(len(auto93.rows)))
    mu_want, sd_want = ref.predict_batch(gp.encode_table(auto93))
    assert model.V.shape[1] == 8
    assert np.abs(mu - mu_want).max() <= 1e-9 and np.abs(sd - sd_want).max() <= 1e-9


def test_fit_gp_targets_one_minus_chebyshev(auto93):
    labeled = label_ids(auto93, range(8))
    model = gp.fit_gp(labeled, auto93)
    mu, _ = model.posterior(labeled)
    want = np.array([1.0 - chebyshev(auto93.rows[i], auto93) for i in labeled])
    assert np.max(np.abs(mu - want)) < 0.05
    assert gp.incumbent(labeled, auto93) == pytest.approx(float(want.max()))


@st.composite
def gp_tables(draw):
    """A small MOOT table as CSV text, and the order in which to label its
    rows. Numeric cells are integer tenths, symbols come from up to three
    letters, and either may be '?'; some rows repeat an earlier row's x
    cells, with goals of their own."""
    n_rows = draw(st.integers(3, 20))
    cell = {"N": st.one_of(st.just("?"), st.integers(-20, 20).map(lambda v: str(v / 10))),
            "s": st.sampled_from(["a", "b", "c", "?"])}
    kinds = draw(st.lists(st.sampled_from("Ns"), min_size=1, max_size=4))
    xs = [[draw(cell[k]) for k in kinds] for _ in range(n_rows)]
    for i in range(1, n_rows):
        if draw(st.booleans()):
            xs[i] = xs[draw(st.integers(0, i - 1))]
    goals = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          min_size=n_rows, max_size=n_rows))
    lines = [",".join([f"{k}{j}" for j, k in enumerate(kinds)] + ["Cost-", "Value+"])]
    lines += [",".join(x + [str(c), str(v)]) for x, (c, v) in zip(xs, goals)]
    order = draw(st.permutations(range(n_rows)))
    return "\n".join(lines) + "\n", order[:draw(st.integers(2, n_rows))]


@settings(max_examples=100, deadline=None)
@given(gp_tables())
# Six identical labeled encodings make R + jI condition about 1e7; an
# oracle solved once in double precision drifts 1.2e-9 from the exact mean.
@example(("N0,Cost-,Value+\n?,0,0\n0.0,0,0\n0.5,0,0\n?,0,1\n?,0,0\n?,0,1\n"
          "?,0,5\n?,0,9\n?,0,0\n0.3,0,3\n?,0,0\n?,0,0\n?,0,0\n?,1,0\n",
          [0, 1, 9, 3, 4, 5, 6, 7]))
def test_incremental_posterior_matches_a_full_refit_on_generated_tables(table):
    """Grown one labeled row at a time, the posterior keeps the length
    scale a from-scratch fit picks (or one whose log marginal likelihood
    ties it within 1e-9), and at that scale its mean and sd at every row
    of the table agree with the from-scratch fit within 1e-9."""
    text, order = table
    ds = load_csv(io.StringIO(text), name="generated")
    E = gp.encode_table(ds)
    model = None
    for i in order:
        ds.label(i)
        labeled = ds.labeled_ids()
        if len(labeled) < 2:
            continue
        model = gp.fit_gp(labeled, ds, model)
        y = 1.0 - reveal(labeled, ds)
        fits = [oracles.gp_refit(E[labeled], y, length_scale=ls)
                for ls in gp.LENGTH_SCALE_GRID]
        want = np.array([m.log_marginal for m in fits])
        tol = 1e-9 * (1.0 + np.abs(want))
        assert (np.abs(model.log_marginal - want) <= tol).all()
        assert want[model.scale] >= want.max() - tol.max()
        mu, sd = model.posterior(np.arange(len(ds.rows)))
        mu_want, sd_want = fits[model.scale].predict_batch(E)
        assert np.abs(mu - mu_want).max() <= 1e-9
        assert np.abs(sd - sd_want).max() <= 1e-9


@settings(max_examples=100, deadline=None)
@given(gp_tables(), st.randoms(use_true_random=False))
def test_acquire_gp_pick_ignores_pool_order(table, rnd):
    text, order = table
    ds = load_csv(io.StringIO(text), name="generated")
    labeled = label_ids(ds, order)
    pool = ds.unlabeled_ids()
    if len(pool) == 0:
        return
    model, f_star = gp.fit_gp(labeled, ds), gp.incumbent(labeled, ds)
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    for fn in gp.ACQUIRES:
        assert (gp.acquire_gp(model, f_star, np.array(shuffled), fn)
                == gp.acquire_gp(model, f_star, pool, fn))


# -- acquisition functions ---------------------------------------------------

def test_ucb_is_exactly_mean_plus_scaled_sd():
    assert oracles.ucb(0.5, 0.1, kappa=2.0) == 0.7
    assert oracles.ucb(0.5, 0.0) == 0.5


def test_pi_hand_values():
    # z = (mu - f* - eps) / sigma = 1
    assert oracles.pi(0.51, 0.2, 0.3, epsilon=0.01) == pytest.approx(
        0.8413447460685429, rel=1e-12)
    assert oracles.pi(0.7, 0.0, 0.3) == 1.0
    assert oracles.pi(0.3, 0.0, 0.3) == 0.0


def test_ei_hand_values():
    # At d = 0 only the density term survives: sigma * phi(0).
    assert oracles.ei(0.31, 1.0, 0.3, epsilon=0.01) == pytest.approx(
        0.3989422804014327, rel=1e-12)
    assert oracles.ei(0.9, 0.0, 0.3) == 0.0
    assert oracles.ei(0.31, 2.0, 0.3, epsilon=0.01) == pytest.approx(
        2.0 * 0.3989422804014327, rel=1e-12)
    assert oracles.ei(-50.0, 1.0, 0.3) >= 0.0


@given(st.floats(-5, 5), st.floats(0, 10), st.floats(-5, 5))
def test_ei_is_nonnegative(mu, sigma, f_star):
    assert oracles.ei(mu, sigma, f_star) >= 0.0


@given(st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.01, 10), st.floats(0, 10))
def test_ei_grows_with_uncertainty(mu, f_star, s1, bump):
    assert oracles.ei(mu, s1 + bump, f_star) >= oracles.ei(mu, s1, f_star) - 1e-12


@given(st.floats(-5, 5), st.floats(0, 10), st.floats(-5, 5),
       st.floats(0, 10))
def test_pi_is_a_probability_monotone_in_the_mean(mu, sigma, f_star, bump):
    lo, hi = oracles.pi(mu, sigma, f_star), oracles.pi(mu + bump, sigma, f_star)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    assert lo <= hi + 1e-12


@given(st.floats(-5, 5), st.one_of(st.just(0.0), st.floats(1e-6, 10)),
       st.floats(-5, 5))
def test_vectorized_scores_match_the_scalar_forms(mu, sigma, f_star):
    assert set(oracles.GP_ACQUISITIONS) == set(gp.ACQUIRES)
    args = {"ucb": (mu, sigma), "pi": (mu, sigma, f_star),
            "ei": (mu, sigma, f_star)}
    for fn, scalar in oracles.GP_ACQUISITIONS.items():
        assert oracles.gp_score(fn, mu, sigma, f_star) == pytest.approx(
            scalar(*args[fn]), rel=1e-9, abs=1e-12)


# -- pool acquisition --------------------------------------------------------

def fitted(ds, n):
    labeled = label_ids(ds, range(n))
    return gp.fit_gp(labeled, ds), gp.incumbent(labeled, ds)


def test_acquire_gp_rejects_bad_inputs(auto93):
    model, f_star = fitted(auto93, 10)
    pool = auto93.unlabeled_ids()
    with pytest.raises(ValueError):
        gp.acquire_gp(model, f_star, pool[:0], "ucb")
    with pytest.raises(ValueError):
        gp.acquire_gp(model, f_star, pool[:5], "greedy")


def test_acquire_gp_singleton(auto93):
    model, f_star = fitted(auto93, 10)
    only = auto93.unlabeled_ids()[:1]
    assert gp.acquire_gp(model, f_star, only, "ucb") == only[0]


@pytest.mark.parametrize("fn", ["ucb", "pi", "ei"])
def test_acquire_gp_matches_scalar_argmax(auto93, fn):
    """The pick is the argmax of the scalar acquisition over a
    from-scratch fit's posterior, one row at a time."""
    model, f_star = fitted(auto93, 10)
    labeled = auto93.labeled_ids()
    ref = oracles.gp_refit(gp.encode_table(auto93)[labeled],
                           1.0 - reveal(labeled, auto93))
    pool = auto93.unlabeled_ids()[:40]
    chosen = gp.acquire_gp(model, f_star, pool, fn)
    scalar = {"ucb": lambda m, s: oracles.ucb(m, s, 2.0),
              "pi": lambda m, s: oracles.pi(m, s, f_star, 0.01),
              "ei": lambda m, s: oracles.ei(m, s, f_star, 0.01)}[fn]
    scored = []
    for i in np.sort(pool):
        mu, sd = oracles.predict(ref, oracles.encode_row(auto93, i))
        scored.append((scalar(mu, sd), i))
    best = max(s for s, _ in scored)
    want = min(i for s, i in scored if s == pytest.approx(best, rel=1e-9))
    assert chosen == want


def test_acquire_gp_prefers_uncertainty_under_a_bold_ucb(make_ds, monkeypatch):
    ds = make_ds("""
        N,Cost-
        0,5
        1,6
        5,4
        0.01,5
        9,7
    """)
    labeled = label_ids(ds, (0, 1, 2))
    model = gp.fit_gp(labeled, ds)
    f_star = gp.incumbent(labeled, ds)
    pool = np.array([3, 4])  # near-duplicate vs far-field point
    monkeypatch.setattr(gp, "KAPPA", 50.0)
    assert gp.acquire_gp(model, f_star, pool, "ucb") == 4


def test_acquire_gp_breaks_ties_toward_low_ids(make_ds):
    ds = make_ds("""
        N,Cost-
        0,5
        1,6
        5,4
        9,7
        9,7
        9,7
    """)
    labeled = label_ids(ds, (0, 1, 2))
    model, f_star = gp.fit_gp(labeled, ds), gp.incumbent(labeled, ds)
    for ids in itertools.permutations([3, 4, 5]):  # identical candidates
        for fn in gp.ACQUIRES:
            assert gp.acquire_gp(model, f_star, np.array(ids), fn) == 3
