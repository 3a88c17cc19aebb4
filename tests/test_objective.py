"""Chebyshev scalarization and the best/rest split."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import DATA, label_ids, shipped
from mootopt.data import load_csv
from mootopt.objective import best_size, chebyshev, ideal_point, reveal, split


def test_ideal_point_follows_goal_directions(kanban):
    # Thruput+ then Delay-
    assert ideal_point(kanban) == [1.0, 0.0]


def test_chebyshev_takes_the_worst_goal_gap(make_ds):
    ds = make_ds("""
        W,Gain+,Cost-
        1,0,0
        1,10,10
        1,8,7
    """)
    label_ids(ds)
    # norm gaps: |0.8 - 1| = 0.2 on Gain+, |0.7 - 0| = 0.7 on Cost-
    assert chebyshev(ds.rows[2], ds) == pytest.approx(0.7)
    assert chebyshev(ds.rows[1], ds) == pytest.approx(1.0)  # worst corner on Cost-


def test_chebyshev_extremes(make_ds):
    ds = make_ds("""
        W,Gain+,Cost-
        1,0,10
        1,10,0
    """)
    label_ids(ds)
    assert chebyshev(ds.rows[1], ds) == 0.0   # at the ideal corner
    assert chebyshev(ds.rows[0], ds) == 1.0   # at the anti-ideal corner


def test_chebyshev_refuses_unlabeled_rows(toy):
    with pytest.raises(ValueError):
        chebyshev(toy.rows[0], toy)
    toy.label(3)
    assert reveal(3, toy) == chebyshev(toy.rows[3], toy)
    for hidden in (0, np.array([3, 0]), [0, 3]):
        with pytest.raises(ValueError):
            reveal(hidden, toy)


def test_cached_scores_equal_the_scalar_formula_on_every_table():
    for path in sorted(DATA.glob("*.csv")):
        ds = shipped(path.stem)
        label_ids(ds)
        want = [oracles.chebyshev(r, ds) for r in ds.rows]
        assert reveal(ds.labeled_ids(), ds).tolist() == want, path.stem


def test_chebyshev_missing_goal_is_worst_case(make_ds):
    ds = make_ds("""
        W,Gain+,Cost-
        1,0,0
        1,10,10
        1,9,?
    """)
    label_ids(ds)
    assert chebyshev(ds.rows[2], ds) == 1.0


@given(st.lists(st.floats(0, 100, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=8))
def test_chebyshev_is_invariant_to_goal_direction_flips(values):
    """Mirroring a goal's values while flipping its direction changes nothing.

    With w = lo + hi - v the mirrored multiset spans the same range, and the
    gap to the ideal is identical: 1 - norm(v) either way.
    """
    lo, hi = min(values), max(values)
    maxi = "W,score+\n" + "".join(f"1,{v!r}\n" for v in values)
    mini = "W,score-\n" + "".join(f"1,{(lo + hi - v)!r}\n" for v in values)
    a = load_csv(io.StringIO(maxi), name="maxi")
    b = load_csv(io.StringIO(mini), name="mini")
    label_ids(a)
    label_ids(b)
    for ra, rb in zip(a.rows, b.rows):
        assert chebyshev(ra, a) == pytest.approx(chebyshev(rb, b), abs=1e-9)


def test_chebyshev_is_bounded_on_real_tables(auto93):
    label_ids(auto93)
    scores = [chebyshev(r, auto93) for r in auto93.rows]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert min(scores) < max(scores)


@pytest.mark.parametrize("n,size", [
    (1, 1), (2, 1), (3, 2), (4, 2), (10, 3), (16, 4), (25, 5), (100, 10),
])
def test_best_size_square_root_rule(n, size):
    assert best_size(n) == size


def test_split_sizes_and_ordering(auto93):
    labeled = label_ids(auto93, range(16))
    parts = split(labeled, auto93)
    assert len(parts.best) == 4 and len(parts.rest) == 12
    assert parts.n == 16
    worst_best = max(chebyshev(r, auto93) for r in parts.best)
    best_rest = min(chebyshev(r, auto93) for r in parts.rest)
    assert worst_best <= best_rest
    assert {r.id for r in parts.best} | {r.id for r in parts.rest} == set(
        labeled.tolist())


def test_split_ties_break_toward_low_row_ids(make_ds):
    ds = make_ds("""
        W,Cost-
        1,5
        2,5
        3,5
        4,5
    """)
    label_ids(ds)
    parts = split(list(reversed(ds.rows)), ds)  # Rows, as the warm start passes
    assert [r.id for r in parts.best] == [0, 1]
    parts = split(np.array([3, 1, 2, 0]), ds)
    assert [r.id for r in parts.best + parts.rest] == [0, 1, 2, 3]


def test_split_needs_two_labeled_rows(toy):
    toy.label(0)
    with pytest.raises(ValueError):
        split(toy.labeled_ids(), toy)
