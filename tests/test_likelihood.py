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


def fit_on(ds, n):
    labeled = label_ids(ds, range(n))
    return lh.fit(split(labeled, ds), ds), labeled


def log_ratio(m):
    """d = log B - log R for every row, as acquire_tpe computes it."""
    return m.design @ m.weights + m.offset


def tie_tol(m):
    """acquire_tpe's tie tolerance."""
    return lh.TIE_REL * (np.abs(m.weights).sum() + abs(m.offset))


def rounding_tol(m):
    """How far the one-product d and the per-class oracle may differ: 1e-12
    relative to 1 + the sum of every class's 1 / sd^2, the scale of the
    largest Gaussian terms either side rounds. Both sides err by a few
    ulps of that scale per term, far under this bound."""
    return 1e-12 * (1.0 + (1.0 / m.num_sd ** 2).sum())


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
    m, _ = fit_on(auto93, 16)
    assert m.prior.tolist() == [0.25, 0.75]
    assert m.sym_n.tolist() == [[4], [12]]  # origin has no '?' cell


def test_fit_rejects_an_empty_class(make_ds):
    ds = make_ds("""
        W,Cost-
        1,1
        2,2
    """)
    label_ids(ds)
    with pytest.raises(ValueError):
        lh.fit(halves(ds, 0), ds)


def test_identical_values_hit_the_sd_floor(make_ds):
    """W normalizes to 0.5, 0.5, 0, 1, so its floor is half the gap of 0.5;
    C has one value, so the constant floor; F's gap is 1e-9 of its range,
    so FLOOR_MIN."""
    ds = make_ds("""
        W,C,F,Cost-
        5,3,0,1
        5,3,1,2
        0,3,1000000000,3
        10,3,1000000000,4
    """)
    label_ids(ds)
    m = lh.fit(halves(ds, 2), ds)
    floor = lh.table_terms(ds)["floor"]
    assert floor.tolist() == [0.25, lh.CONSTANT_FLOOR, lh.FLOOR_MIN]
    assert m.num_sd[0, 0] == 0.25  # rest holds 0 and 1, so its sd is 0.5
    assert m.num_sd[:, 1].tolist() == [lh.CONSTANT_FLOOR] * 2
    assert m.num_sd[1, 2] == lh.FLOOR_MIN


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
    m = lh.fit(halves(ds, 2), ds)
    assert math.isnan(m.num_mean[0, 0])
    assert m.num_sd[:, 0].tolist() == [0.2, pytest.approx(0.4109, abs=1e-4)]
    b, r = oracles.likes(m, ds, 2)
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
    """The class stats summed from the design rows match numpy's mean and
    std of each column within 1e-12 relative, on every shipped table, for
    both classes, at class sizes on both sides of numpy's 8-wide pairwise
    summation, and on auto93's columns with '?' cells. The floors match
    the one-pair-at-a-time oracle exactly, and the symbol counts match a
    count of each row's cells."""
    rng = random.Random(5)
    for path in sorted(DATA.glob("*.csv")):
        ds = shipped(path.stem)
        views = ds.x_views()
        assert lh.table_terms(ds)["floor"].tolist() == [
            oracles.sd_floor(col) for col in views["XT_num"]], path.stem
        n = len(ds.rows)
        gappy = [r.id for r in ds.rows if None in r.x]
        classes = [rng.sample(range(n), min(k, n)) for k in (1, 2, 7, 9, 17, 30, 200)]
        classes += [list(range(n)), gappy, gappy[:1]] if gappy else [list(range(n))]
        for best, rest in zip(classes, classes[1:] + classes[:1]):
            ranked = np.array(best + rest, dtype=np.intp)
            m = lh.fit(BestRestSplit(ranked=ranked, k=len(best), rows=ds.rows), ds)
            for c, ids in enumerate((best, rest)):
                mean, sd = oracles.class_numeric_stats(np.array(ids), views)
                assert np.allclose(m.num_mean[c], mean, rtol=1e-12, atol=0,
                                   equal_nan=True), path.stem
                assert np.allclose(m.num_sd[c], sd, rtol=1e-12, atol=0), path.stem
                counts, known = oracles.class_symbol_counts(ids, ds)
                assert m.sym_n[c].tolist() == known, path.stem
                flat = [counts[j][s] for j, alphabet in enumerate(views["alphabets"])
                        for s in alphabet]
                assert m.sym_counts[c].tolist() == flat, path.stem
            assert m.prior.tolist() == [len(best) / len(ranked), len(rest) / len(ranked)]
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
            m = lh.fit(split(ds.labeled_ids(), ds), ds)
            pool = ds.unlabeled_ids()
            if len(pool) == 0:
                continue
            want, err = oracles.score_pool(m, ds, pool), rounding_tol(m)
            assert np.abs(log_ratio(m)[pool] - want).max() <= err, (path.stem, size)
            for fn in lh.ACQUIRES:
                assert_is_the_pick(lh.acquire_tpe(m, pool, fn), want, pool, fn,
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
    m = lh.fit(halves(ds, 3), ds)
    b, r = oracles.likes(m, ds, 0)
    assert b == 1.0
    assert r == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_numeric_likelihood_matches_gaussian_pdf_oracle(make_ds):
    from scipy.stats import norm as gaussian
    ds = make_ds("""
        N,Cost-
        0.2,1
        0.4,2
        0.8,3
        1.0,4
    """)
    m = lh.fit(split(label_ids(ds), ds), ds)
    col = ds.x_cols[0]
    z = [oracles.norm(col, float(r.x[0]), ds) for r in ds.rows]
    mu_b, sd_b = statistics.fmean(z[:2]), statistics.pstdev(z[:2])
    mu_r, sd_r = statistics.fmean(z[2:]), statistics.pstdev(z[2:])
    want = gaussian(mu_b, sd_b).pdf(z[1]) / gaussian(mu_r, sd_r).pdf(z[1])
    b, r = oracles.likes(m, ds, 1)
    assert b / r == pytest.approx(want, rel=1e-9)


def test_likes_rescales_the_larger_class_to_one(auto93):
    m, _ = fit_on(auto93, 12)
    for i in auto93.unlabeled_ids()[:20]:
        b, r = oracles.likes(m, auto93, i)
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
    m, _ = fit_on(auto93, 14)
    pool = auto93.unlabeled_ids()[:40]
    d = log_ratio(m)
    for i in pool:
        assert abs(d[i] - oracles.log_ratio(m, auto93, i)) <= rounding_tol(m)
        b, r = oracles.likes(m, auto93, i)
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
    m = lh.fit(split(label_ids(ds, range(4)), ds), ds)
    pool = ds.unlabeled_ids()
    d = log_ratio(m)
    for i in pool:
        b, r = oracles.likes(m, ds, i)
        assert d[i] == pytest.approx(math.log(b / r), rel=1e-9, abs=1e-12)


# -- acquire_tpe -------------------------------------------------------------

def test_acquire_rejects_bad_inputs(auto93):
    m, _ = fit_on(auto93, 10)
    pool = auto93.unlabeled_ids()
    with pytest.raises(ValueError):
        lh.acquire_tpe(m, pool, "greedy")
    with pytest.raises(ValueError):
        lh.acquire_tpe(m, pool[:0], "exploit")


def test_acquire_singleton_pool(auto93):
    m, _ = fit_on(auto93, 10)
    only = auto93.unlabeled_ids()[:1]
    assert lh.acquire_tpe(m, only, "exploit") == only[0]


def test_acquire_ignores_pool_order(auto93):
    m, _ = fit_on(auto93, 10)
    pool = auto93.unlabeled_ids()[:30]
    chosen = lh.acquire_tpe(m, pool, "exploit")
    rng = random.Random(1)
    for _ in range(5):
        shuffled = pool.tolist()
        rng.shuffle(shuffled)
        assert lh.acquire_tpe(m, np.array(shuffled), "exploit") == chosen


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
    m = lh.fit(halves(ds, 1, 2), ds)
    for ids in itertools.permutations([2, 3, 4]):  # three identical candidates
        for fn in lh.ACQUIRES:
            assert lh.acquire_tpe(m, np.array(ids), fn) == 2


@pytest.mark.parametrize("fn", ["exploit", "explore"])
def test_acquire_matches_brute_force_argmax(auto93, fn):
    m, _ = fit_on(auto93, 12)
    pool = auto93.unlabeled_ids()[:50]
    d = [oracles.log_ratio(m, auto93, i) for i in pool]
    assert_is_the_pick(lh.acquire_tpe(m, pool, fn), d, pool, fn, tie_tol(m),
                       rounding_tol(m))


# -- generated tables ----------------------------------------------------------

@st.composite
def nb_tables(draw):
    """A small MOOT table as CSV text, plus how many of its rows to label.

    Numeric columns take integer-tenth values, a constant (whose class sds
    hit CONSTANT_FLOOR), integer tenths plus one cell of 1e9 (whose floor
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
    return ds, lh.fit(split(ds.labeled_ids(), ds), ds)


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_table_scorer_and_acquire_match_the_oracles_on_generated_tables(table, rnd):
    """On generated tables the one-product d matches the per-class
    expression within rounding_tol, and acquire_tpe, handed the pool
    shuffled, picks by the oracle's d with the lowest id winning ties."""
    ds, m = fitted_table(table, rnd)
    pool = ds.unlabeled_ids()
    want, err = oracles.score_pool(m, ds, pool), rounding_tol(m)
    assert np.abs(log_ratio(m)[pool] - want).max() <= err
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    for fn in lh.ACQUIRES:
        assert_is_the_pick(lh.acquire_tpe(m, np.array(shuffled), fn), want, pool, fn,
                           tie_tol(m), err)


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_pick_ignores_pool_order_and_term_order(table, rnd):
    """The pick is the same for any order of the pool and any order of
    the terms that make up d: the design's columns permuted with their
    weights, in C or Fortran memory order (another BLAS kernel)."""
    ds, m = fitted_table(table, rnd)
    pool = ds.unlabeled_ids()
    perm = list(range(len(m.weights)))
    rnd.shuffle(perm)
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    reordered = [dataclasses.replace(m, design=layout(m.design[:, perm]),
                                     weights=m.weights[perm])
                 for layout in (np.ascontiguousarray, np.asfortranarray)]
    for fn in lh.ACQUIRES:
        chosen = lh.acquire_tpe(m, pool, fn)
        assert lh.acquire_tpe(m, np.array(shuffled), fn) == chosen
        for other in reordered:
            assert lh.acquire_tpe(other, np.array(shuffled), fn) == chosen


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_no_acquisition_score_is_non_finite_or_saturates(table, rnd):
    """d, and with it both acquisitions' scores, is finite and far from
    1e30 on every row, FLOOR_MIN columns included."""
    _, m = fitted_table(table, rnd)
    d = log_ratio(m)
    assert np.isfinite(m.weights).all()
    for score in (d, -np.abs(d)):
        assert np.isfinite(score).all() and (np.abs(score) < 1e30).all()
