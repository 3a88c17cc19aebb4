"""Effect sizes, bootstrap, Scott-Knott grouping, and report rendering."""

import itertools
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mootopt.report import (_quartiles, evals_needed_csv, frequency_csv,
                            rank_table_csv, render_rank_table)
from mootopt.stats import (Sample, bootstrap_same, cliffs_delta, pstdev,
                           scott_knott, sk_split)
from oracles import bootstrap_p, is_rounded_pstdev, sk_split_loop


# -- Sample --------------------------------------------------------------------

def test_sample_summary_properties():
    s = Sample(("random", "exploit", 10), [3.0, 1.0, 2.0, 4.0])
    assert s.median == statistics.median(s.values)
    assert s.sd == pytest.approx(statistics.pstdev(s.values))
    assert Sample(("x",), [5.0]).sd == 0.0
    with pytest.raises(ValueError):
        Sample(("empty",), [])


# Before 3.11, statistics.pstdev rounds twice and can miss the nearest double.
EXACT_PSTDEV = sys.version_info >= (3, 11)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_cached_sample_statistics_equal_the_statistics_module(values):
    s = Sample(("x",), values)
    for _ in range(2):  # the first read computes, the second reads the cache
        assert s.median == statistics.median(values)
        assert s.sd == (statistics.pstdev if EXACT_PSTDEV else pstdev)(values)


MAX = sys.float_info.max
spread_out = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-1e-300, 1e-300), st.floats(-1.0, 1.0),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -MAX, MAX]))
repeated = st.tuples(spread_out, st.integers(1, 30)).map(lambda vn: [vn[0]] * vn[1])


@given(st.one_of(st.lists(spread_out, min_size=1, max_size=30),
                 st.lists(st.sampled_from([0.1, -0.3, 1e-310]), min_size=1, max_size=30),
                 repeated))
@example([-0.0, 0.0])
@example([5e-324, -5e-324, 0.0])
@example([1e-310, 2.2e-308])
@example([-MAX, MAX])
@example([1e300, 1e-300, -1e300])
@example([0.1, 0.1, 0.1])
@example([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
def test_pstdev_is_the_nearest_double_to_the_exact_sd(values):
    sd = pstdev(values)
    assert is_rounded_pstdev(values, sd), (values, sd)
    if EXACT_PSTDEV:
        assert sd == statistics.pstdev(values)


# -- quartiles -------------------------------------------------------------------

magnitudes = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e300, 1e300),
                       st.floats(-1e-300, 1e-300), st.integers(-3, 3).map(float))


@given(st.lists(magnitudes, min_size=1, max_size=40))
@example([-0.0])
@example([0.7, 0.7, 0.7, 0.1])
@example([-1e300, 1e300, 2.5e-301, -3.0])
@example([0.0] * 6 + [-0.0, -0.0, 0.0, -1.0])  # numpy's partition leaves -0.0 at q3
def test_quartiles_equal_numpy_percentile_bit_for_bit(values):
    want = np.percentile(values, [25, 50, 75])
    got = np.array(_quartiles(values))
    assert got.tobytes() == want.tobytes(), (got, want)


# -- Cliff's delta ---------------------------------------------------------------

def test_cliffs_delta_unit_cases():
    assert cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0
    assert cliffs_delta([1, 1, 1], [2, 2, 2]) == -1.0
    assert cliffs_delta([2, 2, 2], [1, 1, 1]) == 1.0
    assert cliffs_delta([1, 2, 3], [2, 3, 4]) == pytest.approx(-5.0 / 9.0)


def test_cliffs_delta_rejects_empty_sides():
    with pytest.raises(ValueError):
        cliffs_delta([], [1.0])
    with pytest.raises(ValueError):
        cliffs_delta([1.0], [])


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=10),
       st.lists(st.integers(-5, 5), min_size=1, max_size=10))
def test_cliffs_delta_is_antisymmetric_and_bounded(a, b):
    d = cliffs_delta(a, b)
    assert -1.0 <= d <= 1.0
    assert d == -cliffs_delta(b, a)


def test_cliffs_delta_saturates_only_when_disjoint():
    assert cliffs_delta([1, 2], [3, 4]) == -1.0
    assert abs(cliffs_delta([1, 3], [3, 4])) < 1.0  # one shared value


# -- bootstrap -------------------------------------------------------------------

def test_bootstrap_same_obvious_cases():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert bootstrap_same(a, list(a)) is True
    assert bootstrap_same([0.0] * 8, [10.0] * 8) is False
    # Seeded generator: the verdict is reproducible.
    assert bootstrap_same(a, [v + 0.1 for v in a]) == bootstrap_same(
        a, [v + 0.1 for v in a])


def exact_permutation_same(a, b):
    """Oracle: exhaust all C(12,6) splits of the pooled values."""
    pooled = list(a) + list(b)
    observed = abs(statistics.fmean(a) - statistics.fmean(b))
    idx = range(len(pooled))
    hits = total = 0
    for left in itertools.combinations(idx, len(a)):
        chosen = set(left)
        xs = [pooled[i] for i in chosen]
        ys = [pooled[i] for i in idx if i not in chosen]
        gap = abs(statistics.fmean(xs) - statistics.fmean(ys))
        hits += gap >= observed - 1e-12
        total += 1
    return hits / total >= 0.05


def test_bootstrap_agrees_with_exact_permutation_oracle():
    same_a, same_b = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 3.0, 8.0, 4.0, 7.0]
    diff_a, diff_b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [101.0, 102.0, 103.0, 104.0, 105.0, 106.0]
    assert exact_permutation_same(same_a, same_b) is True
    assert bootstrap_same(same_a, same_b) is True
    assert exact_permutation_same(diff_a, diff_b) is False
    assert bootstrap_same(diff_a, diff_b) is False


@pytest.mark.parametrize("a, b, same", [
    ([6.0, 5.0, 3.0], [4.0, 3.0, 1.0], False),   # p = 23/512; 18/256 at 256
    ([4.0, 0.0, 7.0], [4.0, 9.0, 11.0], True),   # p = 34/512; 11/256 at 256
])
def test_bootstrap_draws_512_resamples(a, b, same):
    """The verdict is that of 512 resamples: on these inputs 256 would
    put the p-value on the other side of 0.05."""
    assert bootstrap_same(a, b) is same
    assert (bootstrap_p(a, b) >= 0.05) is same
    assert (bootstrap_p(a, b, resamples=256) >= 0.05) is not same


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=40),
       st.lists(st.integers(0, 12), min_size=1, max_size=40))
def test_bootstrap_same_is_the_one_resample_at_a_time_verdict(a, b):
    a, b = [float(v) for v in a], [float(v) for v in b]
    assert bootstrap_same(a, b) is (bootstrap_p(a, b) >= 0.05)


def test_bootstrap_rejects_empty_sides():
    with pytest.raises(ValueError):
        bootstrap_same([], [1.0])


# -- sk_split --------------------------------------------------------------------

def S(label, values):
    return Sample((label,), list(values))


def test_sk_split_obvious_cut():
    assert sk_split([S("a", [0.0, 0.0]), S("b", [1.0, 1.0])]) == 1


def test_sk_split_identical_values_find_no_cut():
    assert sk_split([S(c, [0.5, 0.5]) for c in "abc"]) is None


def test_sk_split_four_means_cut_in_the_middle():
    samples = [S("a", [0.1] * 4), S("b", [0.12] * 4),
               S("c", [0.8] * 4), S("d", [0.82] * 4)]
    assert sk_split(samples) == 2


def test_sk_split_weighs_by_value_counts():
    # Nine pooled values on the left drag the pooled mean toward zero, so
    # cutting before the two stragglers beats cutting between them.
    samples = [S("a", [0.0] * 9), S("b", [1.0]), S("c", [1.05])]
    assert sk_split(samples) == 1


def test_sk_split_needs_two_samples():
    with pytest.raises(ValueError):
        sk_split([S("a", [1.0])])


def gain_oracle(samples):
    """All-cuts argmax of the weighted squared mean shift, first winner."""
    pooled = [v for s in samples for v in s.values]
    mu = statistics.fmean(pooled)
    best_gain, best_cut = 0.0, None
    for cut in range(1, len(samples)):
        left = [v for s in samples[:cut] for v in s.values]
        right = [v for s in samples[cut:] for v in s.values]
        gain = (len(left) * (statistics.fmean(left) - mu) ** 2
                + len(right) * (statistics.fmean(right) - mu) ** 2)
        if gain > best_gain:
            best_gain, best_cut = gain, cut
    return best_cut


def test_sk_split_matches_the_all_cuts_oracle():
    rng = random.Random(17)
    for _ in range(60):
        samples = [S(str(i), [rng.choice([0.0, 0.25, 0.5, 1.0])
                              for _ in range(rng.randint(1, 6))])
                   for i in range(rng.randint(2, 6))]
        samples.sort(key=lambda s: s.median)
        assert sk_split(samples) == gain_oracle(samples)


# A sample's values come from few levels, so samples tie and repeat; a
# list of more than 8 samples is where numpy's pairwise sum of the totals
# and a running sum of them part ways.
SK_SAMPLE = st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0]),
                               st.floats(0.0, 1.0)), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(SK_SAMPLE, min_size=2, max_size=24),
    st.lists(SK_SAMPLE, min_size=1, max_size=4).flatmap(
        lambda base: st.lists(st.sampled_from(base), min_size=9, max_size=24))))
# Mirrored levels, where two cuts' gains tie to an ulp: squaring by
# multiplication, not pow, moves these cuts from 4 to 8 and from 7 to 5.
@example([[0.0, 0.0, 1 / 3, 0.45], [0.0, 0.4, 0.0, 0.9], [0.3],
          [0.15, 0.45, 1 / 3, 0.6], [0.9, 0.45, 1 / 3], [0.0, 0.9], [1.0, 0.1],
          [1 - 0.9, 0.55, 1 - 1 / 3], [0.85, 0.55, 1 - 1 / 3, 0.4], [0.7],
          [1.0, 0.6, 1.0, 0.1], [1.0, 1.0, 1 - 1 / 3, 0.55]])
@example([[0.0], [0.0, 0.1, 1.0], [0.0, 0.6, 0.15, 0.2], [0.3, 1 / 3, 1 / 3],
          [0.7, 0.2], [0.15, 0.45, 1.0], [0.85, 0.55, 0.0], [1 - 0.7, 0.8],
          [0.7, 1 - 1 / 3, 1 - 1 / 3], [1.0, 0.4, 0.85, 0.8], [1.0, 0.9, 0.0], [1.0]])
def test_sk_split_takes_the_running_sums_cut(value_lists):
    """The cumulative-sum search returns the cut of the loop that adds one
    sample a step, first of equal gains and None at gain 0, bit for bit."""
    samples = sorted((S(str(i), values) for i, values in enumerate(value_lists)),
                     key=lambda s: s.median)
    assert sk_split(samples) == sk_split_loop(samples)


# -- scott_knott -------------------------------------------------------------------

def rank_of(groups, label):
    """Rank (position) of the group holding the sample labeled `label`."""
    return next(rank for rank, g in enumerate(groups) for s in g
                if s.label == label)


def test_scott_knott_single_sample():
    groups = scott_knott([S("only", [1.0, 2.0])])
    assert [[s.label for s in g] for g in groups] == [[("only",)]]
    assert rank_of(groups, ("only",)) == 0


def test_scott_knott_merges_one_distribution():
    a = [0.30, 0.31, 0.29, 0.33, 0.28, 0.32]
    groups = scott_knott([S("a", a), S("b", list(reversed(a)))])
    assert len(groups) == 1
    assert len(groups[0]) == 2


def test_scott_knott_separates_two_clusters():
    groups = scott_knott([S("good", [0.10, 0.11, 0.12, 0.09]),
                          S("bad", [0.90, 0.91, 0.92, 0.89]),
                          S("alsogood", [0.11, 0.10, 0.13, 0.12])])
    assert len(groups) == 2
    assert {s.label[0] for s in groups[0]} == {"good", "alsogood"}
    assert rank_of(groups, ("bad",)) == 1


@pytest.mark.parametrize("ones, split", [(73, False), (74, True)])
def test_scott_knott_splits_only_past_a_negligible_delta(ones, split):
    """500 zeros against 500 values of which `ones` are 1: the bootstrap
    rejects "same" either way, and Cliff's delta is ones / 500, 0.146
    or 0.148, so only the second clears the 0.147 "negligible" bound."""
    a, b = [0.0] * 500, [0.0] * (500 - ones) + [1.0] * ones
    assert abs(cliffs_delta(a, b)) == ones / 500
    assert bootstrap_same(a, b) is False
    groups = scott_knott([S("a", a), S("b", b)])
    assert len(groups) == (2 if split else 1)


def test_scott_knott_is_shift_invariant():
    rng = random.Random(5)
    samples = [S(str(i), [rng.uniform(0, 1) for _ in range(6)]) for i in range(5)]
    shifted = [S(s.label[0], [v + 7.0 for v in s.values]) for s in samples]
    before = [[s.label for s in g] for g in scott_knott(samples)]
    after = [[s.label for s in g] for g in scott_knott(shifted)]
    assert before == after


def test_scott_knott_groups_are_sorted_intervals():
    rng = random.Random(23)
    samples = [S(str(i), [rng.gauss(rng.choice([0.2, 0.8]), 0.05)
                          for _ in range(5)]) for i in range(6)]
    groups = scott_knott(samples)
    flat = [s.label for g in groups for s in g]
    want = [s.label for s in sorted(samples, key=lambda s: (s.median, str(s.label)))]
    assert flat == want
    assert all(groups)


def test_scott_knott_rejects_empty_input():
    with pytest.raises(ValueError):
        scott_knott([])


# -- rank frequencies ---------------------------------------------------------------

def pair_sample(start, acquire, budget, values):
    return Sample((start, acquire, budget), list(values))


def table_of(*groups):
    """Scott-Knott groups in rank order, as scott_knott returns them."""
    return [list(g) for g in groups]


def frequency_rows(tables):
    """frequency_csv's rows as ((start, acquire), {rank: percent}) pairs in
    file order, leaving out the ranks a pair never lands at (0.0)."""
    header, *lines = frequency_csv(tables).splitlines()
    ranks = [int(h.removeprefix("rank")) for h in header.split(",")[2:]]
    rows = []
    for line in lines:
        start, acquire, *cells = line.split(",")
        rows.append(((start, acquire), {r: float(c) for r, c in zip(ranks, cells)
                                        if float(c)}))
    return rows


def test_rank_frequencies_single_table():
    t = table_of([pair_sample("random", "exploit", 10, [0.1])],
                 [pair_sample("random", "random", 10, [0.9])])
    by_pair = dict(frequency_rows([t]))
    assert by_pair[("random", "exploit")] == {0: 100.0}
    assert by_pair[("random", "random")] == {1: 100.0}


def test_rank_frequencies_manual_tally():
    RE = lambda: pair_sample("random", "exploit", 10, [0.1])
    RR = lambda: pair_sample("random", "random", 10, [0.5])
    LL = lambda: pair_sample("llm", "exploit", 10, [0.2])
    tables = [
        table_of([RE(), LL()], [RR()]),
        table_of([RE(), LL()], [RR()]),
        table_of([RE(), RR(), LL()]),
        table_of([RR()], [RE()]),      # LL absent here
    ]
    rows = frequency_rows(tables)
    by_pair = dict(rows)
    assert by_pair[("random", "exploit")] == {0: 75.0, 1: 25.0}
    assert by_pair[("random", "random")] == {0: 50.0, 1: 50.0}
    assert by_pair[("llm", "exploit")] == {0: 75.0}
    assert rows[0][0] in {("random", "exploit"), ("llm", "exploit")}


def test_rank_frequencies_collapse_budgets_to_the_best_rank():
    t = table_of([pair_sample("random", "exploit", 10, [0.1])],
                 [pair_sample("random", "exploit", 20, [0.4])])
    assert frequency_rows([t]) == [(("random", "exploit"), {0: 100.0})]


def test_frequency_csv_of_no_tables_is_its_header():
    assert frequency_csv([]) == "start,acquire,rank0\n"


# -- rendering ----------------------------------------------------------------------

def demo_table():
    return scott_knott([
        pair_sample("random", "exploit", 10, [0.10, 0.12, 0.11, 0.13]),
        pair_sample("random", "random", 10, [0.60, 0.62, 0.61, 0.63]),
    ])


def test_render_rank_table_layout():
    text = render_rank_table(demo_table(), title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert lines[1].startswith("rank")
    assert "o" in text and "|" in text
    assert text.endswith("\n")


def test_rank_table_csv_layout():
    text = rank_table_csv(demo_table())
    lines = text.splitlines()
    assert lines[0] == "rank,start,acquire,budget,median,sd,n"
    assert len(lines) == 3
    assert lines[1].startswith("0,random,exploit,10,")


def test_frequency_csv_exact_bytes():
    assert frequency_csv([demo_table()]) == (
        "start,acquire,rank0,rank1\n"
        "random,exploit,100.0,0.0\n"
        "random,random,0.0,100.0\n")


def test_evals_needed_csv_exact_bytes():
    """A pair holding one rank at two budgets counts the smaller; budgets
    average over the datasets where the pair holds the rank, and a rank
    the pair never holds is an empty cell."""
    RE = lambda b: pair_sample("random", "exploit", b, [0.1])
    RR = lambda b: pair_sample("random", "random", b, [0.5])
    tables = {"a": table_of([RE(20), RE(10)], [RR(10), RE(30)]),
              "b": table_of([RE(30)], [RR(20)], [RR(30)])}
    assert evals_needed_csv(tables) == (
        "start,acquire,rank0,rank1,rank2\n"
        "random,exploit,20.0,30.0,\n"
        "random,random,,15.0,30.0\n")
