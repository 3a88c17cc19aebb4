"""Effect sizes, bootstrap, Scott-Knott grouping, and report rendering."""

import itertools
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from mootopt.report import (evals_needed_csv, frequency_csv, rank_frequencies,
                            rank_table_csv, render_rank_table)
from mootopt.stats import (RankGroup, RankTable, Sample, bootstrap_same,
                           cliffs_delta, scott_knott, sk_split)


# -- Sample --------------------------------------------------------------------

def test_sample_summary_properties():
    s = Sample(("random", "exploit", 10), [3.0, 1.0, 2.0, 4.0])
    assert s.median == statistics.median(s.values)
    assert s.sd == pytest.approx(statistics.pstdev(s.values))
    assert Sample(("x",), [5.0]).sd == 0.0
    with pytest.raises(ValueError):
        Sample(("empty",), [])


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


# -- scott_knott -------------------------------------------------------------------

def rank_of(table, label):
    """Rank of the group holding the sample labeled `label`."""
    return next(g.rank for g in table.groups for s in g.samples if s.label == label)


def test_scott_knott_single_sample():
    table = scott_knott([S("only", [1.0, 2.0])])
    assert len(table.groups) == 1
    assert table.groups[0].rank == 0
    assert rank_of(table, ("only",)) == 0


def test_scott_knott_merges_one_distribution():
    a = [0.30, 0.31, 0.29, 0.33, 0.28, 0.32]
    table = scott_knott([S("a", a), S("b", list(reversed(a)))])
    assert [g.rank for g in table.groups] == [0]
    assert len(table.groups[0].samples) == 2


def test_scott_knott_separates_two_clusters():
    table = scott_knott([S("good", [0.10, 0.11, 0.12, 0.09]),
                         S("bad", [0.90, 0.91, 0.92, 0.89]),
                         S("alsogood", [0.11, 0.10, 0.13, 0.12])])
    assert [g.rank for g in table.groups] == [0, 1]
    assert {s.label[0] for s in table.groups[0].samples} == {"good", "alsogood"}
    assert rank_of(table, ("bad",)) == 1


def test_scott_knott_is_shift_invariant():
    rng = random.Random(5)
    samples = [S(str(i), [rng.uniform(0, 1) for _ in range(6)]) for i in range(5)]
    shifted = [S(s.label[0], [v + 7.0 for v in s.values]) for s in samples]
    before = [[s.label for s in g.samples] for g in scott_knott(samples).groups]
    after = [[s.label for s in g.samples] for g in scott_knott(shifted).groups]
    assert before == after


def test_scott_knott_groups_are_sorted_intervals():
    rng = random.Random(23)
    samples = [S(str(i), [rng.gauss(rng.choice([0.2, 0.8]), 0.05)
                          for _ in range(5)]) for i in range(6)]
    table = scott_knott(samples)
    flat = [s.label for g in table.groups for s in g.samples]
    want = [s.label for s in sorted(samples, key=lambda s: (s.median, str(s.label)))]
    assert flat == want
    assert [g.rank for g in table.groups] == list(range(len(table.groups)))


def test_scott_knott_rejects_empty_input():
    with pytest.raises(ValueError):
        scott_knott([])


# -- rank frequencies ---------------------------------------------------------------

def pair_sample(start, acquire, budget, values):
    return Sample((start, acquire, budget), list(values))


def table_of(*groups):
    return RankTable(groups=[RankGroup(rank=i, samples=list(g))
                             for i, g in enumerate(groups)])


def test_rank_frequencies_single_table():
    t = table_of([pair_sample("random", "exploit", 10, [0.1])],
                 [pair_sample("random", "random", 10, [0.9])])
    rows = rank_frequencies([t])
    by_pair = {(r.start, r.acquire): r.pct for r in rows}
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
    rows = rank_frequencies(tables)
    by_pair = {(r.start, r.acquire): r.pct for r in rows}
    assert by_pair[("random", "exploit")] == {0: 75.0, 1: 25.0}
    assert by_pair[("random", "random")] == {0: 50.0, 1: 50.0}
    assert by_pair[("llm", "exploit")] == {0: 75.0}
    assert (rows[0].start, rows[0].acquire) in {("random", "exploit"),
                                                ("llm", "exploit")}


def test_rank_frequencies_collapse_budgets_to_the_best_rank():
    t = table_of([pair_sample("random", "exploit", 10, [0.1])],
                 [pair_sample("random", "exploit", 20, [0.4])])
    rows = rank_frequencies([t])
    assert len(rows) == 1
    assert rows[0].pct == {0: 100.0}


def test_rank_frequencies_reject_empty_input():
    with pytest.raises(ValueError):
        rank_frequencies([])


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
    rows = rank_frequencies([demo_table()])
    assert frequency_csv(rows) == (
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
