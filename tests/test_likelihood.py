"""Two-class naive-Bayes surrogate and its acquisition scores."""

import dataclasses
import io
import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DATA, label_ids, shipped
from mootopt import likelihood as lh
from mootopt.data import load_csv
from mootopt.objective import BestRestSplit, split


def halves(ds, k, end=None):
    """Rows [0, k) as best and [k, end) as rest."""
    end = len(ds.rows) if end is None else end
    return BestRestSplit(ranked=np.arange(end), k=k, rows=ds.rows)


def fit_one(sp, ds):
    """lh.fit on a batch of one split: that run's model."""
    m = lh.fit([sp], ds)
    return oracles.RunModel(design=m.design, weights=m.weights[0],
                            offset=m.offset[0])


def pick(m, pool, fn):
    """lh.acquire_tpe's pick for the one run of `m` from the ids `pool`."""
    mask = np.zeros((1, len(m.design)), dtype=bool)
    mask[0, pool] = True
    batch = lh.TwoClassModel(design=m.design, weights=m.weights[None],
                             offset=np.array([m.offset]))
    return int(lh.acquire_tpe(batch, mask, [fn])[0])


def fitted(sp, ds):
    """The model fit gives a split, and the oracle's class stats of it."""
    return fit_one(sp, ds), oracles.class_stats(sp, ds)


def fit_on(ds, n):
    return fitted(split(label_ids(ds, range(n)), ds), ds)


def log_ratio(m):
    """d = log B - log R for every row, as acquire_tpe computes it."""
    return m.design @ m.weights + m.offset


def tie_tol(m):
    """acquire_tpe's tie tolerance."""
    return lh.TIE_REL * (np.abs(m.weights).sum() + abs(m.offset))


def rounding_tol(s, ds):
    """How far the one-product d and the per-class oracle may differ: 1e-12
    relative to 1 + the sum of every class's 1 / sd^2, the scale of the
    largest Gaussian terms either side rounds. Both sides err by a few
    ulps of that scale per term, far under this bound. A column with fewer
    than two distinct values is 0.5 on every row and in every class mean,
    so its Gaussian terms are 0 on both sides and it adds nothing."""
    varied = [len(np.unique(col[~np.isnan(col)])) > 1
              for col in ds.x_views()["X_num"].T]
    return 1e-12 * (1.0 + (1.0 / s.sd[:, varied] ** 2).sum())


def assert_weights_match(m, s, ds, msg=None):
    """m's weights are the best-minus-rest design coefficients of the
    oracle's class stats, each within 1e-12 of the two classes' terms'
    magnitudes, and its offset is their log prior ratio."""
    w = oracles.design_weights(s, ds)
    assert (np.abs(m.weights - (w[0] - w[1]))
            <= 1e-12 * (np.abs(w[0]) + np.abs(w[1]))).all(), msg
    assert m.offset == pytest.approx(math.log(s.prior[0] / s.prior[1]),
                                     rel=1e-12, abs=1e-15), msg


def assert_is_the_pick(chosen, d, ids, fn, tol, err):
    """`chosen` is acquire_tpe's pick by the oracle's d, each d off by at
    most `err`: it scores within the tie tolerance of the top, and no lower
    id clearly does."""
    scores = {int(i): (v if fn == "exploit" else -abs(v)) for v, i in zip(d, ids)}
    top = max(scores.values())
    assert scores[chosen] >= top - tol - 2 * err
    assert all(s < top - tol + 2 * err for i, s in scores.items() if i < chosen)


# -- class stats -------------------------------------------------------------

def test_priors_and_counts(auto93):
    """4 of 16 rows are best, so the offset is log(4 / 12). origin has no
    '?' cell, so its known-symbol weight is log((12 + size) / (4 + size))."""
    m, s = fit_on(auto93, 16)
    assert s.prior == [0.25, 0.75] and s.known == [[4], [12]]
    assert m.offset == math.log(4 / 12)
    p, size = s.mean.shape[1], len(auto93.x_views()["alphabets"][0])
    assert m.weights[3 * p] == pytest.approx(math.log((12 + size) / (4 + size)),
                                             rel=1e-12)
    assert_weights_match(m, s, auto93)


def test_fit_rejects_an_empty_class(make_ds):
    ds = make_ds("""
        W,Cost-
        1,1
        2,2
    """)
    label_ids(ds)
    with pytest.raises(ValueError):
        fit_one(halves(ds, 0), ds)


def test_identical_values_hit_the_sd_floor(make_ds):
    """W normalizes to 0.5, 0.5, 0, 1, so its floor is half the gap of 0.5;
    C has one value, so no gap, and F's gap is 1e-9 of its range: both
    take FLOOR_MIN. C is 0.5 in both classes, so its weights are 0."""
    ds = make_ds("""
        W,C,F,Cost-
        5,3,0,1
        5,3,1,2
        0,3,1000000000,3
        10,3,1000000000,4
    """)
    label_ids(ds)
    m, s = fitted(halves(ds, 2), ds)
    floor = lh.table_terms(ds)["floor"]
    assert floor.tolist() == [0.25, lh.FLOOR_MIN, lh.FLOOR_MIN]
    assert s.sd[:, 0].tolist() == [0.25, 0.5]  # rest holds 0 and 1
    assert s.sd[:, 1].tolist() == [lh.FLOOR_MIN] * 2
    assert s.sd[:, 2].tolist() == [lh.FLOOR_MIN] * 2
    assert_weights_match(m, s, ds)
    # W's x^2 weight is -1 / (2 0.25^2) + 1 / (2 0.5^2); F's x weight is
    # best's mean 5e-10 minus rest's 1, over FLOOR_MIN^2
    assert m.weights[0] == -6.0
    assert m.weights[[1, 4, 7]].tolist() == [0.0] * 3  # C's x^2, x and known
    assert m.weights[5] == pytest.approx((5e-10 - 1) / lh.FLOOR_MIN ** 2, rel=1e-12)


def test_a_fine_gap_sets_the_sd_floor_that_decides_a_pick(make_ds):
    """W's smallest normalized gap is 1e-3, so its floor is 5e-4, above
    the 1e-6 least floor. Best holds W = 0.5 twice, so its sd is that
    floor; rest holds 0 and 1. Explore picks the d nearest 0 among 0.501,
    0.502 and 0.503: d is about 4.9, -1.1 and -11.1, so 0.502 (row 5).
    A floor of 1e-3 would move d to 5.7, 4.2 and 1.7, and the pick to 6."""
    ds = make_ds("""
        W,Cost-
        500,1
        500,2
        0,3
        1000,4
        501,5
        502,6
        503,7
    """)
    assert lh.table_terms(ds)["floor"][0] == pytest.approx(5e-4, rel=1e-9)
    m = fit_one(halves(ds, 2, end=4), ds)
    assert pick(m, [4, 5, 6], "explore") == 5


def test_class_that_never_saw_a_column_is_neutral(make_ds):
    """Best saw no W, so W adds nothing to d, though rest's sd of W (0.41)
    is not best's floor (0.2): d is the log prior ratio on every row."""
    ds = make_ds("""
        W,Cost-
        ?,1
        ?,2
        0,3
        10,4
        4,5
    """)
    label_ids(ds)
    m, s = fitted(halves(ds, 2), ds)
    assert math.isnan(s.mean[0, 0])
    assert s.sd[:, 0].tolist() == [0.2, pytest.approx(0.4109, abs=1e-4)]
    assert_weights_match(m, s, ds)
    b, r = oracles.likes(s, ds, 2)
    assert math.isfinite(b) and math.isfinite(r)
    assert not m.weights.any()
    assert log_ratio(m).tolist() == [math.log(2 / 3)] * 5


def test_design_matches_the_cell_by_cell_encoding():
    """Each row of the cached design is [x^2, x, known, symbol known,
    one-hot] of its own cells, built one cell at a time: norm() for a
    numeric cell, and for a symbol its place in the flat space that
    numbers every column's alphabet in turn. Missing cells stay 0."""
    for path in sorted(DATA.glob("*.csv")):
        ds = shipped(path.stem)
        views, design = ds.x_views(), lh.table_terms(ds)["design"]
        p, q = len(views["num_pos"]), len(views["sym_pos"])
        starts = np.cumsum([0] + [len(a) for a in views["alphabets"]])
        want = np.zeros(design.shape)
        for i, row in enumerate(ds.rows):
            for j, c in enumerate(views["num_pos"]):
                if row.x[c] is not None:
                    z = oracles.norm(ds.x_cols[c], float(row.x[c]), ds)
                    want[i, [j, p + j, 2 * p + j]] = z * z, z, 1.0
            for j, c in enumerate(views["sym_pos"]):
                if row.x[c] is not None:
                    slot = starts[j] + views["alphabets"][j].index(row.x[c])
                    want[i, [3 * p + j, 3 * p + q + slot]] = 1.0
        assert np.array_equal(design, want), path.stem
        assert design.flags.c_contiguous


def test_class_stats_match_the_per_column_oracle():
    """The weights fit sums from the design rows match those of the
    oracle's class stats (numpy's mean and std of each column, and a count
    of each row's cells), on every shipped table, at class sizes on both
    sides of numpy's 8-wide pairwise summation, and on auto93's columns
    with '?' cells. The floors match the one-pair-at-a-time oracle
    exactly."""
    rng = random.Random(5)
    for path in sorted(DATA.glob("*.csv")):
        ds = shipped(path.stem)
        views = ds.x_views()
        assert lh.table_terms(ds)["floor"].tolist() == [
            oracles.sd_floor(col) for col in views["X_num"].T], path.stem
        n = len(ds.rows)
        gappy = [r.id for r in ds.rows if None in r.x]
        classes = [rng.sample(range(n), min(k, n)) for k in (1, 2, 7, 9, 17, 30, 200)]
        classes += [list(range(n)), gappy, gappy[:1]] if gappy else [list(range(n))]
        for best, rest in zip(classes, classes[1:] + classes[:1]):
            ranked = np.array(best + rest, dtype=np.intp)
            m, s = fitted(BestRestSplit(ranked=ranked, k=len(best), rows=ds.rows), ds)
            assert_weights_match(m, s, ds, path.stem)
    assert np.isnan(shipped("auto93").x_views()["X_num"]).any()


def test_log_ratio_matches_the_plain_expression_on_shipped_tables():
    """The one-product d matches the per-class centered expression over
    the pool on every shipped table, within rounding_tol, and acquire_tpe
    picks by the oracle's d."""
    rng = random.Random(8)
    for path in sorted(DATA.glob("*.csv")):
        for size in (4, 9, 16, 30):
            ds = shipped(path.stem)
            label_ids(ds, rng.sample(range(len(ds.rows)), min(size, len(ds.rows))))
            m, s = fitted(split(ds.labeled_ids(), ds), ds)
            pool = ds.unlabeled_ids()
            if len(pool) == 0:
                continue
            want, err = oracles.score_pool(s, ds, pool), rounding_tol(s, ds)
            assert np.abs(log_ratio(m)[pool] - want).max() <= err, (path.stem, size)
            for fn in lh.ACQUIRES:
                assert_is_the_pick(pick(m, pool, fn), want, pool, fn,
                                   tie_tol(m), err)


# -- hand-worked likelihoods -------------------------------------------------

def test_symbolic_smoothing_hand_case(make_ds):
    """Add-one smoothing over a 3-letter alphabet.

    Best class holds [a, a, b], so P(a|best) = (2+1)/(3+3) = 1/2 and
    P(a|rest) = (0+1)/(3+3) = 1/6. Priors are equal and cancel, leaving
    the rest likelihood at exactly one third after rescaling.
    """
    ds = make_ds("""
        kind,Cost-
        a,1
        a,2
        b,3
        c,4
        c,5
        c,6
    """)
    label_ids(ds)
    m, s = fitted(halves(ds, 3), ds)
    b, r = oracles.likes(s, ds, 0)
    assert b == 1.0
    assert r == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert log_ratio(m)[0] == pytest.approx(math.log(3.0), rel=1e-12)


def test_numeric_likelihood_matches_gaussian_pdf_oracle(make_ds):
    from scipy.stats import norm as gaussian
    ds = make_ds("""
        N,Cost-
        0.2,1
        0.4,2
        0.8,3
        1.0,4
    """)
    m, s = fitted(split(label_ids(ds), ds), ds)
    col = ds.x_cols[0]
    z = [oracles.norm(col, float(r.x[0]), ds) for r in ds.rows]
    mu_b, sd_b = statistics.fmean(z[:2]), statistics.pstdev(z[:2])
    mu_r, sd_r = statistics.fmean(z[2:]), statistics.pstdev(z[2:])
    want = gaussian(mu_b, sd_b).pdf(z[1]) / gaussian(mu_r, sd_r).pdf(z[1])
    b, r = oracles.likes(s, ds, 1)
    assert b / r == pytest.approx(want, rel=1e-9)
    assert log_ratio(m)[1] == pytest.approx(math.log(want), rel=1e-9)


def test_likes_rescales_the_larger_class_to_one(auto93):
    _, s = fit_on(auto93, 12)
    for i in auto93.unlabeled_ids()[:20]:
        b, r = oracles.likes(s, auto93, i)
        assert max(b, r) == 1.0
        # the smaller side may underflow to 0.0 outright when a class sd
        # is tiny and the row sits far from its mean
        assert min(b, r) >= 0.0


# -- acquisition scores ------------------------------------------------------

def test_exploit_unit_cases():
    assert oracles.exploit(0.8, 0.2) == pytest.approx(4.0, rel=1e-9)
    assert oracles.exploit(0.0, 0.7) == 0.0
    assert oracles.exploit(1.0, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_explore_unit_cases():
    assert oracles.explore(0.6, 0.4) == pytest.approx(5.0, rel=1e-9)
    assert oracles.explore(0.4, 0.6) == oracles.explore(0.6, 0.4)
    assert oracles.explore(0.5, 0.5) > 1e20  # near the disagreement singularity


def test_explore_signed_keeps_the_sign():
    assert oracles.explore_signed(0.6, 0.4) == pytest.approx(5.0, rel=1e-9)
    assert oracles.explore_signed(0.4, 0.6) == pytest.approx(-5.0, rel=1e-9)


def test_acquisitions_registry():
    assert set(oracles.ACQUISITIONS) == set(lh.ACQUIRES) == {"exploit", "explore"}
    assert oracles.ACQUISITIONS["exploit"] is oracles.exploit


def test_score_pool_agrees_with_scalar_likes(auto93):
    m, s = fit_on(auto93, 14)
    pool = auto93.unlabeled_ids()[:40]
    d = log_ratio(m)
    for i in pool:
        assert abs(d[i] - oracles.log_ratio(s, auto93, i)) <= rounding_tol(s, auto93)
        b, r = oracles.likes(s, auto93, i)
        if min(b, r) > 0.0:  # the smaller side may underflow outright
            assert d[i] == pytest.approx(math.log(b / r), rel=1e-9, abs=1e-9)


def test_score_pool_handles_missing_cells(make_ds):
    ds = make_ds("""
        N,kind,Cost-
        1,a,1
        2,a,2
        3,b,3
        4,b,4
        ?,a,5
        5,?,6
    """)
    m, s = fitted(split(label_ids(ds, range(4)), ds), ds)
    pool = ds.unlabeled_ids()
    d = log_ratio(m)
    for i in pool:
        b, r = oracles.likes(s, ds, i)
        assert d[i] == pytest.approx(math.log(b / r), rel=1e-9, abs=1e-12)


# -- acquire_tpe -------------------------------------------------------------

def test_acquire_rejects_bad_inputs(auto93):
    m, _ = fit_on(auto93, 10)
    pool = auto93.unlabeled_ids()
    with pytest.raises(ValueError):
        pick(m, pool, "greedy")
    with pytest.raises(ValueError):
        pick(m, pool[:0], "exploit")


def test_acquire_singleton_pool(auto93):
    m, _ = fit_on(auto93, 10)
    only = auto93.unlabeled_ids()[:1]
    assert pick(m, only, "exploit") == only[0]


def test_acquire_ignores_pool_order(auto93):
    m, _ = fit_on(auto93, 10)
    pool = auto93.unlabeled_ids()[:30]
    chosen = pick(m, pool, "exploit")
    rng = random.Random(1)
    for _ in range(5):
        shuffled = pool.tolist()
        rng.shuffle(shuffled)
        assert pick(m, np.array(shuffled), "exploit") == chosen


def test_acquire_breaks_ties_toward_low_ids(make_ds):
    ds = make_ds("""
        N,Cost-
        1,1
        2,2
        9,3
        9,4
        9,5
    """)
    label_ids(ds, [0, 1])
    m = fit_one(halves(ds, 1, 2), ds)
    for ids in itertools.permutations([2, 3, 4]):  # three identical candidates
        for fn in lh.ACQUIRES:
            assert pick(m, np.array(ids), fn) == 2


@pytest.mark.parametrize("fn", ["exploit", "explore"])
def test_acquire_matches_brute_force_argmax(auto93, fn):
    m, s = fit_on(auto93, 12)
    pool = auto93.unlabeled_ids()[:50]
    d = [oracles.log_ratio(s, auto93, i) for i in pool]
    assert_is_the_pick(pick(m, pool, fn), d, pool, fn, tie_tol(m),
                       rounding_tol(s, auto93))


# -- generated tables ----------------------------------------------------------

@st.composite
def nb_tables(draw):
    """A small MOOT table as CSV text, plus how many of its rows to label.

    Numeric columns take integer-tenth values, a constant (whose class sds
    hit FLOOR_MIN and whose weights cancel), integer tenths plus one cell of 1e9 (whose floor
    is FLOOR_MIN, so the expanded quadratic cancels hardest), or mostly '?'
    cells (so a class may never see one); symbolic columns draw from up to
    three letters, or are all '?' (an empty alphabet).
    """
    n_labeled = draw(st.integers(2, 30))
    n_rows = n_labeled + draw(st.integers(1, 10))
    missing = st.sampled_from([0.0, 0.2, 0.9, 1.0])
    columns = []
    for j in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["spread", "constant", "outlier"]))
        rate = draw(missing)
        values = draw(st.lists(st.integers(-50, 50), min_size=n_rows, max_size=n_rows))
        holes = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=n_rows,
                              max_size=n_rows))
        cells = ["?" if h < rate else ("7" if kind == "constant" else str(v / 10))
                 for v, h in zip(values, holes)]
        if kind == "outlier":
            cells[draw(st.integers(0, n_rows - 1))] = "1e9"
        columns.append((f"N{j}", cells))
    for j in range(draw(st.integers(0 if columns else 1, 2))):
        letters = draw(st.sampled_from(["", "a", "ab", "abc"]))
        cells = draw(st.lists(st.sampled_from(list(letters) + ["?"]),
                              min_size=n_rows, max_size=n_rows))
        columns.append((f"s{j}", cells))
    goals = draw(st.lists(st.integers(0, 9), min_size=n_rows, max_size=n_rows))
    columns.append(("Cost-", [str(g) for g in goals]))
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(cells[i] for _, cells in columns) for i in range(n_rows)]
    return "\n".join(lines) + "\n", n_labeled


def fitted_table(table, rnd):
    text, n_labeled = table
    ds = load_csv(io.StringIO(text), name="generated")
    label_ids(ds, rnd.sample(range(len(ds.rows)), n_labeled))
    return (ds, *fitted(split(ds.labeled_ids(), ds), ds))


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_table_scorer_and_acquire_match_the_oracles_on_generated_tables(table, rnd):
    """On generated tables the weights match the oracle's class stats, the
    one-product d matches the per-class expression within rounding_tol,
    and acquire_tpe, handed the pool shuffled, picks by the oracle's d
    with the lowest id winning ties."""
    ds, m, s = fitted_table(table, rnd)
    assert_weights_match(m, s, ds)
    pool = ds.unlabeled_ids()
    want, err = oracles.score_pool(s, ds, pool), rounding_tol(s, ds)
    assert np.abs(log_ratio(m)[pool] - want).max() <= err
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    for fn in lh.ACQUIRES:
        assert_is_the_pick(pick(m, np.array(shuffled), fn), want, pool, fn,
                           tie_tol(m), err)


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_pick_ignores_pool_order_and_term_order(table, rnd):
    """The pick is the same for any order of the pool and any order of
    the terms that make up d: the design's columns permuted with their
    weights, in C or Fortran memory order (another BLAS kernel)."""
    ds, m, _ = fitted_table(table, rnd)
    pool = ds.unlabeled_ids()
    perm = list(range(len(m.weights)))
    rnd.shuffle(perm)
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    reordered = [dataclasses.replace(m, design=layout(m.design[:, perm]),
                                     weights=m.weights[perm])
                 for layout in (np.ascontiguousarray, np.asfortranarray)]
    for fn in lh.ACQUIRES:
        chosen = pick(m, pool, fn)
        assert pick(m, np.array(shuffled), fn) == chosen
        for other in reordered:
            assert pick(other, np.array(shuffled), fn) == chosen


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_no_acquisition_score_is_non_finite_or_saturates(table, rnd):
    """d, and with it both acquisitions' scores, is finite and far from
    1e30 on every row, FLOOR_MIN columns included."""
    _, m, _ = fitted_table(table, rnd)
    d = log_ratio(m)
    assert np.isfinite(m.weights).all()
    for score in (d, -np.abs(d)):
        assert np.isfinite(score).all() and (np.abs(score) < 1e30).all()


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.data())
def test_batched_fit_and_pick_equal_the_per_run_oracle(table, data):
    """Each run of a batch gets the weights and offset the per-run fit
    gives it alone, bit for bit, and the pick the per-run acquisition
    makes from its own pool: runs of uneven label counts, every boundary
    k from 1 to n - 1, exploit and explore mixed, on tables with
    one-value columns and missing numerics."""
    ds = load_csv(io.StringIO(table[0]), name="generated")
    n_rows = len(ds.rows)
    rnd = data.draw(st.randoms(use_true_random=False))
    splits, fns = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        n = data.draw(st.integers(2, n_rows - 1))
        ranked = np.array(rnd.sample(range(n_rows), n), dtype=np.intp)
        splits.append(BestRestSplit(ranked=ranked, k=data.draw(st.integers(1, n - 1)),
                                    rows=ds.rows))
        fns.append(data.draw(st.sampled_from(lh.ACQUIRES)))
    m = lh.fit(splits, ds)
    pool = np.ones((len(splits), n_rows), dtype=bool)
    for r, sp in enumerate(splits):
        pool[r, sp.ranked] = False
    picks = lh.acquire_tpe(m, pool, fns)
    assert m.weights.shape == (len(splits), m.design.shape[1])
    for r, (sp, fn) in enumerate(zip(splits, fns)):
        want = oracles.fit_run(sp, ds)
        assert m.weights[r].tobytes() == want.weights.tobytes()
        assert m.offset[r] == want.offset
        assert picks[r] == oracles.acquire_run(want, pool[r].nonzero()[0], fn)
