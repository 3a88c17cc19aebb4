"""Run orchestration: budgets, traces, seeds, and the treatment grid."""

import statistics

import pytest

from conftest import label_ids
from mootopt import engine as eng
from mootopt.engine import (DEFAULT_ARMS, GridSpec, Treatment,
                            baseline_summary, derive_seed, run_active,
                            run_baseline, run_grid, run_random)
from mootopt.objective import chebyshev
from mootopt.report import improvement_curve_csv
from mootopt.warmstart import MockSynthesizer


def test_default_grid_is_nine_arms():
    assert len(DEFAULT_ARMS) == 9
    assert ("llm", "exploit") in DEFAULT_ARMS
    assert ("random", "random") in DEFAULT_ARMS
    assert ("baseline", "baseline") in DEFAULT_ARMS
    assert set(eng.ALL_ACQUIRES) == {
        "exploit", "explore", "ucb", "pi", "ei", "random", "baseline"}


# -- run_active ---------------------------------------------------------------

def test_run_active_rejects_bad_requests(toy):
    with pytest.raises(ValueError):
        run_active(toy, Treatment("random", "random", 6), None, 0)
    with pytest.raises(ValueError):
        run_active(toy, Treatment("random", "exploit", 13), None, 0)
    with pytest.raises(ValueError):
        run_active(toy, Treatment("random", "exploit", 4), None, 0)  # <= b0
    with pytest.raises(ValueError):
        run_active(toy, Treatment("llm", "exploit", 6), None, 0)


def test_run_active_spends_exactly_the_budget(toy):
    res = run_active(toy, Treatment("random", "exploit", 6), None, 0)
    assert res.evaluations_used == 6
    assert [e for e, _ in res.trace] == [1, 2, 3, 4, 5, 6]
    assert res.best_chebyshev == res.trace[-1][1]


def test_trace_is_a_best_so_far_curve(toy):
    res = run_active(toy, Treatment("random", "explore", 8), None, 3)
    values = [v for _, v in res.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_run_active_is_seed_deterministic(kanban):
    t = Treatment("llm", "exploit", 12)
    a = run_active(kanban, t, MockSynthesizer(), 77)
    b = run_active(kanban.fresh(), t, MockSynthesizer(), 77)
    assert a.to_record() == b.to_record()
    assert a.trace == b.trace


@pytest.mark.parametrize("acquire", ["ucb", "pi", "ei"])
def test_run_active_gp_arms_run_within_budget(toy, acquire):
    res = run_active(toy, Treatment("random", acquire, 7), None, 1)
    assert res.evaluations_used == 7
    assert 0.0 <= res.best_chebyshev <= 1.0


# -- run_random and the baseline ----------------------------------------------

def test_run_random_full_budget_finds_the_optimum(toy):
    res = run_random(toy, 12, 5)
    assert res.best_chebyshev == baseline_summary(toy)[1]
    with pytest.raises(ValueError):
        run_random(toy, 13, 5)


def test_run_random_single_label(toy):
    res = run_random(toy, 1, 2)
    assert res.evaluations_used == 1
    assert res.trace == [(1, res.best_chebyshev)]


def test_bigger_random_budgets_find_better_rows_on_average(toy):
    small = statistics.fmean(
        run_random(toy, 3, s).best_chebyshev for s in range(200))
    large = statistics.fmean(
        run_random(toy, 9, s).best_chebyshev for s in range(200))
    assert large < small


def test_baseline_summary_matches_statistics_oracle(toy):
    work = toy.fresh()
    label_ids(work)
    scores = [chebyshev(r, work) for r in work.rows]
    mean, lo, median, sd = baseline_summary(toy)
    assert mean == pytest.approx(statistics.fmean(scores))
    assert lo == min(scores)
    assert median == statistics.median(scores)
    assert sd == pytest.approx(statistics.pstdev(scores))


def test_run_baseline_labels_everything(toy):
    res = run_baseline(toy)
    assert res.evaluations_used == 12
    assert res.treatment.budget == 12
    assert res.best_chebyshev == baseline_summary(toy)[2]
    assert res.spread == pytest.approx(baseline_summary(toy)[3])
    rec = res.to_record()
    assert rec["spread"] == res.spread


def test_single_row_baseline_is_its_own_median(make_ds):
    ds = make_ds("""
        W,Cost-
        3,7
    """)
    res = run_baseline(ds)
    work = ds.fresh()
    work.label(0)
    assert res.best_chebyshev == chebyshev(work.rows[0], work)
    assert res.spread == 0.0


# -- normalized improvement -----------------------------------------------------

def normalized_improvement(bests, ds):
    """The improvement column report.improvement_curve_csv writes for one
    arm's bests on `ds`, scaled by baseline_summary as the manifest records
    it; None when the row is skipped."""
    mean, lo, median, sd = baseline_summary(ds)
    manifest = {"datasets": {ds.name: {"chebyshev": {
        "mean": mean, "lo": lo, "median": median, "sd": sd}}}}
    records = [{"dataset": ds.name, "start": "random", "acquire": "random",
                "budget": 5, "best": b} for b in bests]
    lines = improvement_curve_csv(records, manifest).splitlines()
    assert lines[0] == "dataset,start,acquire,budget,improvement"
    return float(lines[1].rsplit(",", 1)[1]) if len(lines) > 1 else None


def test_normalized_improvement_anchors(auto93):
    mean, lo, _, _ = baseline_summary(auto93)
    assert normalized_improvement([lo], auto93) == 0.0
    assert normalized_improvement([mean], auto93) == pytest.approx(1.0)
    assert normalized_improvement([lo, mean], auto93) == pytest.approx(0.5)


def test_normalized_improvement_edge_cases(make_ds, auto93):
    # A flat table's mean equals its minimum: the degenerate row is skipped.
    flat = make_ds("""
        W,Cost-
        1,5
        2,5
        3,5
    """, name="flat")
    assert normalized_improvement([0.5], flat) is None
    assert normalized_improvement([], auto93) is None


# -- seeds ----------------------------------------------------------------------

def test_derive_seed_pinned_value():
    # crc32 of "auto93|random|exploit|20|3|1"
    assert derive_seed("auto93", "random", "exploit", 20, 3, 1) == 898227272


def test_derive_seed_separates_every_component():
    base = derive_seed("auto93", "random", "exploit", 20, 3, 1)
    variants = {
        derive_seed("auto94", "random", "exploit", 20, 3, 1),
        derive_seed("auto93", "llm", "exploit", 20, 3, 1),
        derive_seed("auto93", "random", "explore", 20, 3, 1),
        derive_seed("auto93", "random", "exploit", 21, 3, 1),
        derive_seed("auto93", "random", "exploit", 20, 4, 1),
        derive_seed("auto93", "random", "exploit", 20, 3, 2),
    }
    assert base not in variants and len(variants) == 6


# -- run_grid --------------------------------------------------------------------

SMALL_GRID = GridSpec(
    arms=(("random", "exploit"), ("random", "random"), ("baseline", "baseline")),
    budgets=(6, 8), repeats=2)


def test_run_grid_is_schedule_independent(toy):
    serial = run_grid([toy], SMALL_GRID, jobs=1)
    threaded = run_grid([toy.fresh()], SMALL_GRID, jobs=3)
    assert [(r.to_record(), r.trace) for r in serial] == [
        (r.to_record(), r.trace) for r in threaded]
    # active and random arms: 2 budgets x 2 repeats; baseline runs once
    assert len(serial) == 4 + 4 + 1


def test_run_grid_baseline_budget_is_the_row_count(toy):
    results = run_grid([toy], SMALL_GRID)
    base = [r for r in results if r.treatment.acquire == "baseline"]
    assert len(base) == 1
    assert base[0].treatment.budget == 12


def test_run_grid_skips_oversized_budgets(toy):
    grid = GridSpec(arms=(("random", "exploit"),), budgets=(6, 99), repeats=1)
    results = run_grid([toy], grid)
    assert [r.treatment.budget for r in results] == [6]


def test_run_grid_results_are_sorted(toy):
    records = [r.to_record() for r in run_grid([toy], SMALL_GRID)]
    keys = [(r["dataset"], r["start"], r["acquire"], r["budget"], r["repeat"])
            for r in records]
    assert keys == sorted(keys)


def test_run_grid_reports_failures_without_dying(toy):
    grid = GridSpec(arms=(("llm", "exploit"), ("random", "random")),
                    budgets=(6,), repeats=2)
    errors = []
    results = run_grid([toy], grid, synthesizer=None,
                       on_error=lambda ds, t, rep, exc: errors.append(
                           (ds.name, t.start, rep, str(exc))))
    assert len(errors) == 2  # both llm repeats, no synthesizer to call
    assert all(r.treatment.start == "random" for r in results)
    with pytest.raises(ValueError):
        run_grid([toy.fresh()], grid, synthesizer=None)
