"""Two-class naive-Bayes surrogate and its acquisition scores."""

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
    ds = make_ds("""
        W,Cost-
        5,1
        5,2
        0,3
        10,4
    """)
    label_ids(ds)
    m = lh.fit(halves(ds, 2), ds)
    assert m.num_sd[0, 0] == lh.SD_FLOOR


def test_class_that_never_saw_a_column_is_neutral(make_ds):
    ds = make_ds("""
        W,Cost-
        ?,1
        ?,2
        3,3
        7,4
    """)
    label_ids(ds)
    m = lh.fit(halves(ds, 2), ds)
    assert math.isnan(m.num_mean[0, 0])
    b, r = oracles.likes(m, ds, 2)
    assert math.isfinite(b) and math.isfinite(r)


def test_class_stats_equal_the_per_column_oracle_bit_for_bit():
    """The stacked class stats match the per-column loop exactly on every
    shipped table, for both classes, at class sizes on both sides of
    numpy's 8-wide pairwise summation, and on auto93's columns with '?'
    cells. The symbol counts match a count of each row's cells."""
    rng = random.Random(5)
    for path in sorted(DATA.glob("*.csv")):
        ds = shipped(path.stem)
        views = ds.x_views()
        n = len(ds.rows)
        gappy = [r.id for r in ds.rows if None in r.x]
        classes = [rng.sample(range(n), min(k, n)) for k in (1, 2, 7, 9, 17, 30, 200)]
        classes += [list(range(n)), gappy, gappy[:1]] if gappy else [list(range(n))]
        for best, rest in zip(classes, classes[1:] + classes[:1]):
            ranked = np.array(best + rest, dtype=np.intp)
            m = lh.fit(BestRestSplit(ranked=ranked, k=len(best), rows=ds.rows), ds)
            for c, ids in enumerate((best, rest)):
                mean, sd = oracles.class_numeric_stats(np.array(ids), views)
                assert np.array_equal(m.num_mean[c], mean, equal_nan=True), path.stem
                assert np.array_equal(m.num_sd[c], sd), path.stem
                counts, known = oracles.class_symbol_counts(ids, ds)
                assert m.sym_n[c].tolist() == known, path.stem
                flat = [counts[j][s] for j, alphabet in enumerate(views["alphabets"])
                        for s in alphabet]
                assert m.sym_counts[c].tolist() == flat, path.stem
            assert m.prior.tolist() == [len(best) / len(ranked), len(rest) / len(ranked)]
    assert shipped("auto93").x_views()["num_missing"].any()


def test_score_pool_equals_the_plain_expression_bit_for_bit():
    """The in-place table scoring reproduces the plain numpy expression
    over the pool exactly on every shipped table. Under tiny class sds
    (nasa93dem) the last bits of the sums decide which row is picked."""
    rng = random.Random(8)
    for path in sorted(DATA.glob("*.csv")):
        for size in (4, 9, 16, 30):
            ds = shipped(path.stem)
            label_ids(ds, rng.sample(range(len(ds.rows)), min(size, len(ds.rows))))
            m = lh.fit(split(ds.labeled_ids(), ds), ds)
            pool = ds.unlabeled_ids()
            if len(pool) == 0:
                continue
            for got, want in zip(lh.score_table(m), oracles.score_pool(m, pool)):
                assert np.array_equal(got[pool], want), (path.stem, size)


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
    B, R = (v[pool] for v in lh.score_table(m))
    for k, i in enumerate(pool):
        b, r = oracles.likes(m, auto93, i)
        assert B[k] == pytest.approx(b, rel=1e-9, abs=1e-12)
        assert R[k] == pytest.approx(r, rel=1e-9, abs=1e-12)


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
    B, R = (v[pool] for v in lh.score_table(m))
    for k, i in enumerate(pool):
        b, r = oracles.likes(m, ds, i)
        assert B[k] == pytest.approx(b, rel=1e-9)
        assert R[k] == pytest.approx(r, rel=1e-9)


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
    chosen = lh.acquire_tpe(m, pool, fn)
    scored = [(oracles.ACQUISITIONS[fn](*oracles.likes(m, auto93, i)), i) for i in pool]
    best_score = max(s for s, _ in scored)
    want = min(i for s, i in scored if s == pytest.approx(best_score, rel=1e-9))
    assert chosen == want


# -- generated tables ----------------------------------------------------------

@st.composite
def nb_tables(draw):
    """A small MOOT table as CSV text, plus how many of its rows to label.

    Numeric columns take integer-tenth values, a constant (whose class sds
    hit SD_FLOOR), or mostly '?' cells (so a class may never see one);
    symbolic columns draw from up to three letters, or are all '?' (an
    empty alphabet). Few enough numeric columns that numpy sums every row
    left to right, pool of one row included.
    """
    n_labeled = draw(st.integers(2, 30))
    n_rows = n_labeled + draw(st.integers(1, 10))
    missing = st.sampled_from([0.0, 0.2, 0.9, 1.0])
    columns = []
    for j in range(draw(st.integers(0, 4))):
        kind, rate = draw(st.sampled_from(["spread", "constant"])), draw(missing)
        values = draw(st.lists(st.integers(-50, 50), min_size=n_rows, max_size=n_rows))
        holes = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=n_rows,
                              max_size=n_rows))
        cells = ["?" if h < rate else ("7" if kind == "constant" else str(v / 10))
                 for v, h in zip(values, holes)]
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


@settings(max_examples=200, deadline=None)
@given(nb_tables(), st.randoms(use_true_random=False))
def test_table_scorer_and_acquire_match_the_oracles_on_generated_tables(table, rnd):
    """On generated tables the scorer's pool entries equal the plain
    expression bit for bit, for both classes, and acquire_tpe, handed the
    pool shuffled, returns the brute-force argmax with the lowest id
    winning ties."""
    text, n_labeled = table
    ds = load_csv(io.StringIO(text), name="generated")
    label_ids(ds, rnd.sample(range(len(ds.rows)), n_labeled))
    m = lh.fit(split(ds.labeled_ids(), ds), ds)
    pool = ds.unlabeled_ids()
    want = oracles.score_pool(m, pool)
    for got, expected in zip(lh.score_table(m), want):
        assert np.array_equal(got[pool], expected)
    shuffled = pool.tolist()
    rnd.shuffle(shuffled)
    for fn in lh.ACQUIRES:
        scored = [(oracles.ACQUISITIONS[fn](b, r), i)
                  for b, r, i in zip(*want, pool.tolist())]
        top = max(s for s, _ in scored)
        pick = min(i for s, i in scored if s == top)
        assert lh.acquire_tpe(m, np.array(shuffled), fn) == pick
