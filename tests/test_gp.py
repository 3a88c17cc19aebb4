"""Gaussian-process surrogate: kernel algebra, acquisitions, pool scoring."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular

import oracles
from conftest import label_ids
from mootopt import gp
from mootopt.data import sample_ids
from mootopt.objective import chebyshev


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
    X = gp.encode_rows(ds, np.arange(5))
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

def test_two_point_posterior_matches_linear_algebra_oracle():
    """Closed-form check on the smallest nontrivial fit.

    X = {0, 1}, y = {0, 1}, unit length scale. signal_var = var(y) = 0.25,
    so K = 0.25 * exp(-d^2/2) + 1e-6 I, and the posterior at 0.5 follows
    from one 2x2 solve.
    """
    model = gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]),
                   length_scale=1.0)
    K = 0.25 * np.exp(-np.array([[0.0, 1.0], [1.0, 0.0]]) / 2.0) + 1e-6 * np.eye(2)
    ks = 0.25 * np.exp(-np.array([0.25, 0.25]) / 2.0)
    mu_want = 0.5 + ks @ np.linalg.solve(K, np.array([-0.5, 0.5]))
    var_want = 0.25 - ks @ np.linalg.solve(K, ks)
    mu, sd = oracles.predict(model, np.array([0.5]))
    assert mu == pytest.approx(mu_want, abs=1e-9)
    assert sd == pytest.approx(math.sqrt(var_want), abs=1e-9)
    assert mu == pytest.approx(0.5, abs=1e-9)  # symmetry


def test_direct_triangular_solves_equal_scipy():
    """The direct LAPACK trtrs calls give solve_triangular's results bit
    for bit, for the forward (L x = b) and transposed (L^T x = b) solves,
    on one right-hand side and on an 800-column block like a predict's."""
    rng = np.random.default_rng(7)
    for n in (2, 5, 20, 30):
        a = rng.normal(size=(n, n))
        L = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        for b in (rng.normal(size=n), rng.normal(size=(800, n)).T):
            assert np.array_equal(gp._tri_solve(L, b),
                                  solve_triangular(L, b, lower=True))
            assert np.array_equal(gp._tri_solve(L, b, transposed=True),
                                  solve_triangular(L.T, b, lower=False))
            assert np.array_equal(gp._tri_solve(L, b.copy(order="F"), overwrite_b=True),
                                  solve_triangular(L, b, lower=True))


def test_non_finite_inputs_are_rejected():
    with pytest.raises(ValueError):
        gp.fit(np.array([[0.0], [np.nan]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, np.inf]))
    model = gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        model.predict_batch(np.array([[np.nan]]))


def test_grid_search_keeps_the_highest_marginal_likelihood():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(12, 1))
    y = np.sin(3.0 * X[:, 0])
    picked = gp.fit(X, y)
    fits = [gp.fit(X, y, length_scale=ls) for ls in gp.LENGTH_SCALE_GRID]
    best = max(fits, key=lambda m: m.log_marginal)
    assert picked.length_scale == best.length_scale
    assert picked.log_marginal == best.log_marginal


def test_posterior_interpolates_noiseless_training_points():
    X = np.linspace(0, 1, 6).reshape(-1, 1)
    y = np.sin(2.0 * X[:, 0])
    model = gp.fit(X, y)
    mu, sd = model.predict_batch(X)
    assert np.max(np.abs(mu - y)) < 2e-3
    assert np.max(sd) < 1e-2


def test_duplicate_inputs_average_their_targets():
    model = gp.fit(np.array([[0.0], [0.0], [1.0]]), np.array([0.0, 0.2, 1.0]),
                   length_scale=1.0)
    mu, _ = oracles.predict(model, np.array([0.0]))
    assert abs(mu - 0.1) < 0.05


def test_posterior_reverts_to_the_prior_far_away():
    y = np.array([0.3, 0.5, 0.7, 0.9])
    model = gp.fit(np.array([[0.0], [0.2], [0.4], [0.6]]), y, length_scale=1.0)
    mu, sd = oracles.predict(model, np.array([1e3]))
    assert mu == pytest.approx(float(y.mean()), abs=1e-6)
    assert sd == pytest.approx(math.sqrt(model.signal_var), abs=1e-6)


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        gp.fit(np.array([[0.0]]), np.array([1.0]))


def test_unsalvageable_kernel_raises_gp_fit_error():
    # Duplicate inputs with a gigantic signal variance: the absolute jitter
    # ladder cannot restore positive definiteness at this scale.
    with pytest.raises(gp.GpFitError):
        gp.fit(np.array([[0.0], [0.0]]), np.array([0.0, 2e9]), length_scale=1.0)


def test_jitter_ladder_settles_on_a_larger_jitter_that_factorizes():
    # Duplicate inputs with a large signal variance: NOISE_VAR alone leaves
    # the kernel indefinite, and a rung further up the ladder factorizes it.
    model = gp.fit(np.array([[0.0], [0.0], [1.0]]), np.array([0.0, 1e6, 5e5]),
                   length_scale=1.0)
    assert gp.NOISE_VAR < model.jitter <= gp.JITTER_MAX
    mu, sd = model.predict_batch(np.array([[0.0], [0.5], [3.0]]))
    assert np.isfinite(mu).all() and np.isfinite(sd).all()


def test_fit_gp_targets_one_minus_chebyshev(auto93):
    labeled = label_ids(auto93, range(8))
    model = gp.fit_gp(labeled, auto93)
    mu, _ = model.predict_batch(gp.encode_rows(auto93, labeled))
    want = np.array([1.0 - chebyshev(auto93.rows[i], auto93) for i in labeled])
    assert np.max(np.abs(mu - want)) < 0.05
    assert gp.incumbent(labeled, auto93) == pytest.approx(float(want.max()))


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
        gp.acquire_gp(model, f_star, pool[:0], "ucb", auto93)
    with pytest.raises(ValueError):
        gp.acquire_gp(model, f_star, pool[:5], "greedy", auto93)


def test_acquire_gp_singleton(auto93):
    model, f_star = fitted(auto93, 10)
    only = auto93.unlabeled_ids()[:1]
    assert gp.acquire_gp(model, f_star, only, "ucb", auto93) == only[0]


@pytest.mark.parametrize("fn", ["ucb", "pi", "ei"])
def test_acquire_gp_matches_scalar_argmax(auto93, fn):
    model, f_star = fitted(auto93, 10)
    pool = auto93.unlabeled_ids()[:40]
    chosen = gp.acquire_gp(model, f_star, pool, fn, auto93)
    scalar = {"ucb": lambda m, s: oracles.ucb(m, s, 2.0),
              "pi": lambda m, s: oracles.pi(m, s, f_star, 0.01),
              "ei": lambda m, s: oracles.ei(m, s, f_star, 0.01)}[fn]
    scored = []
    for i in np.sort(pool):
        mu, sd = oracles.predict(model, oracles.encode_row(auto93, i))
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
    assert gp.acquire_gp(model, f_star, pool, "ucb", ds) == 4


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
            assert gp.acquire_gp(model, f_star, np.array(ids), fn, ds) == 3


def test_id_subsample_draws_what_the_row_list_draw_did(auto93, monkeypatch):
    """With a small cap, sampling ids picks the same rows from the same rng
    state as rng.sample over the id-sorted row list, and the pick is the
    argmax over exactly those rows."""
    model, f_star = fitted(auto93, 10)
    pool = auto93.unlabeled_ids()[:40]
    rows = [auto93.rows[i] for i in pool]
    monkeypatch.setattr(gp, "POOL_CAP", 8)
    for seed in range(5):
        old = sorted(random.Random(seed).sample(rows, 8), key=lambda r: r.id)
        new = np.sort(sample_ids(random.Random(seed), pool, 8))
        assert [r.id for r in old] == new.tolist()
        mu, sd = model.predict_batch(gp.encode_rows(auto93, new))
        want = new[int(np.argmax(mu + 2.0 * sd))]
        got = gp.acquire_gp(model, f_star, pool[::-1], "ucb", auto93,
                            rng=random.Random(seed))
        assert got == want


def test_acquire_gp_large_pools_need_an_rng(auto93, monkeypatch):
    model, f_star = fitted(auto93, 10)
    pool = auto93.unlabeled_ids()[:20]
    monkeypatch.setattr(gp, "POOL_CAP", 8)
    with pytest.raises(ValueError):
        gp.acquire_gp(model, f_star, pool, "ucb", auto93)


def test_acquire_gp_subsampling_is_seed_deterministic(auto93, monkeypatch):
    model, f_star = fitted(auto93, 10)
    pool = auto93.unlabeled_ids()[:20]
    monkeypatch.setattr(gp, "POOL_CAP", 8)
    picks = {gp.acquire_gp(model, f_star, pool, "ucb", auto93,
                           rng=random.Random(0))
             for _ in range(3)}
    assert len(picks) == 1
