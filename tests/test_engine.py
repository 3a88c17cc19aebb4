"""Run orchestration: budgets, curves, seeds, and the treatment grid."""

import functools
import io
import itertools
import random
import re
import statistics
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DATA, SlowFirstBrokenSynth, completion, label_ids, send,
                      shipped)
from mootopt import engine as eng
from mootopt import warmstart as ws
from mootopt.data import Dataset, Row, load_csv, sample_ids
from mootopt.engine import (DEFAULT_ARMS, GridSpec, Run, Treatment,
                            baseline_summary, derive_seed, run_active,
                            run_baseline, run_grid, run_random)
from mootopt.objective import chebyshev, reveal
from mootopt.report import improvement_curve_csv, samples_by_dataset
from mootopt.warmstart import (MockSynthesizer, RemoteSynthesizer,
                               SyntheticRow, render_synthetic)


def test_default_grid_is_nine_arms():
    assert len(DEFAULT_ARMS) == 9
    assert ("llm", "exploit") in DEFAULT_ARMS
    assert ("random", "random") in DEFAULT_ARMS
    assert ("baseline", "baseline") in DEFAULT_ARMS
    assert set(eng.ACTIVE_ACQUIRES) == {"exploit", "explore", "ucb", "pi", "ei"}
    assert {a for _, a in eng.ARMS} == set(eng.ACTIVE_ACQUIRES) | {"random",
                                                                 "baseline"}
    assert len(eng.ARMS) == 12 and set(DEFAULT_ARMS) <= set(eng.ARMS)


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
    assert len(res.curve) == 6
    rec = res.record(6)
    assert (rec["evals"], rec["best"]) == (6, res.curve[-1])


def test_trace_is_a_best_so_far_curve(toy):
    res = run_active(toy, Treatment("random", "explore", 8), None, 3)
    values = res.curve
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_run_active_is_seed_deterministic(kanban):
    t = Treatment("llm", "exploit", 12)
    a = run_active(kanban, t, MockSynthesizer(), 77)
    b = run_active(kanban.fresh(), t, MockSynthesizer(), 77)
    assert a.record(t.budget) == b.record(t.budget)
    assert a.curve == b.curve


class SealedGoals:
    """Stands in for a table's goal array; any read of it fails."""

    def _read(self, *args):
        raise AssertionError("the goal array was read after the score vector was built")

    __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = __array__ = _read


def test_runs_reach_goal_values_only_through_the_score_vector():
    """Rows carry no goal values, and once a table's score vector is built
    its goal array can go: warm starts (prompt, mock synthesizer, landing),
    a naive-Bayes batch and a GP run label the same rows as on an untouched
    copy of the table."""
    assert Row._fields == ("id", "x")
    tables = [load_csv(DATA / "auto93.csv") for _ in range(2)]
    probe = tables[1].fresh()
    probe.label(0)
    reveal(0, probe)  # builds the score vector every copy of the table shares
    tables[1]._goals = SealedGoals()
    orders = []
    for ds in tables:
        tpe = [Run(ds, Treatment("llm", acquire, 20), seed)
               for seed, acquire in enumerate(("exploit", "explore", "exploit"))]
        gp_run = Run(ds, Treatment("llm", "ucb", 15), seed=3)
        for run in tpe + [gp_run]:
            run.land(run.start(MockSynthesizer())())
            assert not run.fallback
        eng.label_tpe(tpe)
        eng.label_gp(gp_run)
        orders.append([run.work.label_order.tolist() for run in tpe + [gp_run]])
    assert orders[0] == orders[1]


@pytest.mark.parametrize("name", ["auto93", "pom3a"])
def test_llm_starts_never_overspend_small_budgets(name):
    """Below B0 plus the four synthetic rows, the warm start stops at the
    budget instead of labeling every mapped hit."""
    ds = shipped(name)
    for acquire in ("exploit", "ucb"):
        for budget in (5, 6, 7):
            for repeat in range(3):
                seed = derive_seed(name, "llm", acquire, repeat, 1)
                res = run_active(ds, Treatment("llm", acquire, budget),
                                 MockSynthesizer(), seed)
                assert len(res.curve) == budget


@pytest.mark.parametrize("acquire", ["ucb", "pi", "ei"])
def test_run_active_gp_arms_run_within_budget(toy, acquire):
    res = run_active(toy, Treatment("random", acquire, 7), None, 1)
    assert len(res.curve) == 7
    assert 0.0 <= res.curve[-1] <= 1.0


# -- run_random and the baseline ----------------------------------------------

def test_run_random_full_budget_finds_the_optimum(toy):
    res = run_random(toy, 12, 5)
    assert res.curve[-1] == baseline_summary(toy)[1]
    with pytest.raises(ValueError):
        run_random(toy, 13, 5)


def test_run_random_refuses_a_run_without_labels(toy):
    """A zero-label run has no best row, so it is refused like an oversize
    one; a grid refuses such a budget before any run starts."""
    with pytest.raises(ValueError):
        run_random(toy, 0, 3)
    with pytest.raises(ValueError, match="budget 0 must exceed the warm size"):
        GridSpec(arms=(("random", "random"),), budgets=(0,), repeats=1)


def test_run_random_draws_are_prefixes_of_larger_draws(nasa93dem):
    """random.sample picks differently at k=10 and k=30 on 93 rows, so a
    budget-10 draw would not be the start of a budget-30 draw; run_random's
    draw is."""
    for seed in range(20):
        big = run_random(nasa93dem, 30, seed)
        for b in (1, 10, 29):
            small = run_random(nasa93dem, b, seed)
            assert small.curve == big.curve[:b]


class LabelLog(Dataset):
    """A table whose copies append each label to the `log` they share."""

    def label(self, i: int) -> None:
        super().label(i)
        self.log.append(int(i))


@functools.lru_cache(maxsize=None)
def ramp(n: int) -> LabelLog:
    ds = load_csv(io.StringIO("A,b-\n" + "".join(f"{i},{i}\n" for i in range(n))))
    return LabelLog(ds.name, ds.columns, ds.rows, ds.stats, ds._x_values, ds._goals)


def random_labels(n: int, b1: int, seed: int) -> list[int]:
    ds = ramp(n)
    ds.log = []
    run_random(ds, b1, seed)
    return ds.log


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))),
       st.integers(0, 2**32 - 1))
def test_run_random_labels_the_head_of_one_whole_table_sample(sizes, seed):
    """run_random makes only its b1 draws, mirroring the pool branch that
    CPython's random.sample always takes at k = n. This test guards that
    mirror: the labels are the first b1 ids of sample_ids over the whole
    table, and a smaller budget's labels are a prefix of a larger one's."""
    n, b1, b2 = sizes
    small, big = sorted((b1, b2))
    whole = sample_ids(random.Random(seed), np.arange(n), n).tolist()
    assert random_labels(n, big, seed) == whole[:big]
    assert random_labels(n, small, seed) == whole[:small]


def test_run_random_single_label(toy):
    res = run_random(toy, 1, 2)
    assert len(res.curve) == 1
    assert res.record(1)["best"] == res.curve[0]


def test_bigger_random_budgets_find_better_rows_on_average(toy):
    small = statistics.fmean(
        run_random(toy, 3, s).curve[-1] for s in range(200))
    large = statistics.fmean(
        run_random(toy, 9, s).curve[-1] for s in range(200))
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
    rec = run_baseline(toy)
    assert rec["evals"] == 12
    assert rec["budget"] == 12
    assert rec["best"] == baseline_summary(toy)[2]
    assert rec["spread"] == pytest.approx(baseline_summary(toy)[3])
    assert list(rec) == ["dataset", "start", "acquire", "budget", "repeat",
                         "seed", "best", "evals", "fallback", "spread"]


def test_single_row_baseline_is_its_own_median(make_ds):
    ds = make_ds("""
        W,Cost-
        3,7
    """)
    rec = run_baseline(ds)
    work = ds.fresh()
    work.label(0)
    assert rec["best"] == chebyshev(work.rows[0], work)
    assert rec["spread"] == 0.0


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
    lines = improvement_curve_csv(samples_by_dataset(records),
                                  manifest).splitlines()
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
    # crc32 of "auto93|random|exploit|3|1"
    assert derive_seed("auto93", "random", "exploit", 3, 1) == 1481261151


def test_derive_seed_separates_every_component():
    base = derive_seed("auto93", "random", "exploit", 3, 1)
    variants = {
        derive_seed("auto94", "random", "exploit", 3, 1),
        derive_seed("auto93", "llm", "exploit", 3, 1),
        derive_seed("auto93", "random", "explore", 3, 1),
        derive_seed("auto93", "random", "exploit", 4, 1),
        derive_seed("auto93", "random", "exploit", 3, 2),
    }
    assert base not in variants and len(variants) == 5


# -- each budget's record, read off one run's curve -------------------------------

def test_record_reads_the_curve_prefix(toy):
    res = run_active(toy, Treatment("random", "explore", 10), None, 4)
    assert res.record(10) == {
        "dataset": "toy", "start": "random", "acquire": "explore",
        "budget": 10, "repeat": 0, "seed": 4, "best": res.curve[-1],
        "evals": 10, "fallback": False}
    res.repeat = 2
    small = res.record(7)
    assert (small["start"], small["acquire"], small["budget"]) == (
        "random", "explore", 7)
    assert small["evals"] == 7
    assert small["best"] == res.curve[6] == min(res.curve[:7])
    assert (small["seed"], small["repeat"], small["fallback"]) == (
        res.seed, 2, res.fallback)


def test_record_refuses_a_budget_the_run_did_not_spend(toy):
    """A record exists only at a budget from 1 to the labels the run
    spent: budget 0 would read the final best off curve[-1] with evals 0."""
    res = run_active(toy, Treatment("random", "exploit", 8), None, 0)
    assert res.record(1)["evals"] == 1 and res.record(8)["evals"] == 8
    for budget in (0, len(res.curve) + 1):
        with pytest.raises(ValueError, match=f"budget {budget} is outside"):
            res.record(budget)


def completed(out):
    """The records of a grid that must have had no failed run."""
    assert out.failures == []
    return out.records


TABLES = sorted(p.stem for p in DATA.glob("*.csv"))
CUT_ARMS = tuple((start, acquire) for acquire in eng.ACTIVE_ACQUIRES
                 for start in ("random", "llm")) + (("random", "random"),)


def curve_prefixes(monkeypatch):
    """Spy on Run.record. The function returned maps each record it
    built to the curve prefix that record was read off, and any other
    record (the baseline's) to None."""
    built = {}
    original = Run.record

    def spy(self, budget):
        rec = original(self, budget)
        built[id(rec)] = (rec, self.curve[:budget])  # held, so no id is reused
        return rec

    monkeypatch.setattr(Run, "record", spy)
    return lambda rec: built[id(rec)][1] if id(rec) in built else None


@pytest.mark.parametrize("name", TABLES)
def test_each_budget_record_is_a_standalone_run_at_that_budget(name, monkeypatch):
    """Under the seed rule, the grid's record at each budget, and the curve
    prefix it was read off, equal a run made at that budget alone, for
    every active acquisition under both starts and for random selection,
    and for each repeat: a naive-Bayes run alone is a batch of one.
    Budgets 5 and 7 stop inside the warm start. A record holds the
    best-so-far curve, not the rows, so a row that does not lower the
    curve goes unseen here; the random draw's prefix property is checked
    on its own above."""
    ds = shipped(name)
    synth = MockSynthesizer()
    prefix = curve_prefixes(monkeypatch)
    for base in range(3):
        grid = GridSpec(arms=CUT_ARMS, budgets=(5, 7, 10, 30), repeats=2,
                        base_seed=base)
        records = completed(run_grid([ds], grid, synthesizer=synth))
        fits = [b for b in grid.budgets if b <= len(ds.rows)]
        assert len(records) == len(CUT_ARMS) * len(fits) * 2
        for r in records:
            t = Treatment(r["start"], r["acquire"], r["budget"])
            seed = derive_seed(ds.name, t.start, t.acquire, r["repeat"], base)
            if t.acquire == "random":
                alone = run_random(ds, t.budget, seed)
            else:
                alone = run_active(ds, t, synth, seed)
            alone.repeat = r["repeat"]
            assert (r, prefix(r)) == (alone.record(t.budget), alone.curve)


# -- run_grid --------------------------------------------------------------------

def test_run_grid_runs_each_arm_and_repeat_once(toy, monkeypatch):
    """The table's three runs enter one label loop, once each, at the
    largest budget that fits."""
    batches = []
    original = eng.label_tpe

    def spy(runs):
        batches.append([run.t.budget for run in runs])
        return original(runs)

    monkeypatch.setattr(eng, "label_tpe", spy)
    results = completed(run_grid([toy], GridSpec(arms=(("random", "exploit"),),
                                                 budgets=(6, 99, 8, 7),
                                                 repeats=3)))
    assert batches == [[8, 8, 8]]
    assert sorted(r["budget"] for r in results) == [6] * 3 + [7] * 3 + [8] * 3
    assert len({r["seed"] for r in results}) == 3


@pytest.mark.parametrize("acquire", ["exploit", "ucb"])
def test_a_run_alone_is_the_grid_run(acquire):
    """run_active takes the grid's steps for one run: at the grid's largest
    budget and repeat 0's seed, a warm-started run alone logs the grid
    run's transcript events and reads off the grid's records."""
    ds = shipped("auto93")
    grid = GridSpec(arms=(("llm", acquire),), repeats=1)
    out = run_grid([ds], grid, synthesizer=MockSynthesizer())
    alone = run_active(ds, Treatment("llm", acquire, max(grid.budgets)),
                       MockSynthesizer(),
                       derive_seed(ds.name, "llm", acquire, 0, grid.base_seed))
    assert alone.events and alone.events == out.events
    assert [alone.record(b) for b in grid.budgets] == completed(out)


class BrokenFirstSynth:
    """The mock synthesizer, except that its first call raises TypeError,
    which no warm start catches."""

    def __init__(self):
        self.calls = itertools.count()

    def __call__(self, bundle, ranked, ds):
        if next(self.calls) == 0:
            raise TypeError("synthesizer broke")
        return MockSynthesizer()(bundle, ranked, ds)


NB_ARMS = (("llm", "exploit"), ("llm", "explore"),
           ("random", "exploit"), ("random", "explore"))


def test_a_runs_records_do_not_depend_on_the_runs_in_its_batch(monkeypatch):
    """Each table's naive-Bayes runs share one label loop, but no run's
    records depend on the others: repeats 0-1 of a three-repeat grid are
    the two-repeat grid's records, and a run whose warm start fails drops
    out of its batch without changing the other runs' records."""
    tables = [shipped("auto93"), shipped("nasa93dem")]

    def grid(repeats, synth):
        return run_grid(tables, GridSpec(arms=NB_ARMS, repeats=repeats),
                        synthesizer=synth)

    def cells(records):
        return [(r, prefix(r)) for r in records]

    prefix = curve_prefixes(monkeypatch)
    two = completed(grid(2, MockSynthesizer()))
    three = completed(grid(3, MockSynthesizer()))
    assert len(three) == len(two) * 3 // 2
    assert cells(two) == cells(r for r in three if r["repeat"] < 2)
    broken = grid(2, BrokenFirstSynth())
    # one job: the first synthesizer call is the first run's warm start
    assert broken.failures == [
        f"run failed: auto93 llm/exploit budget=30 repeat=0: "
        "TypeError: synthesizer broke"]
    assert cells(broken.records) == cells(
        r for r in two if (r["dataset"], r["start"], r["acquire"],
                           r["repeat"]) != ("auto93", "llm", "exploit", 0))


def test_a_failing_batch_fails_its_own_runs_only(monkeypatch):
    """A label loop that raises fails every run of its table's batch, each
    with its own message, and no run of another table or arm."""
    original = eng.label_tpe

    def broken_on_toy(runs):
        if runs[0].ds.name == "toy":
            raise RuntimeError("loop broke")
        return original(runs)

    monkeypatch.setattr(eng, "label_tpe", broken_on_toy)
    grid = GridSpec(arms=(("random", "exploit"), ("random", "random")),
                    budgets=(6, 8), repeats=2)
    out = run_grid([shipped("auto93"), shipped("toy")], grid)
    assert out.failures == [
        f"run failed: toy random/exploit budget=8 repeat={rep}: "
        "RuntimeError: loop broke" for rep in (0, 1)]
    assert sorted({(r["dataset"], r["acquire"]) for r in out.records}) == [
        ("auto93", "exploit"), ("auto93", "random"), ("toy", "random")]


@pytest.mark.parametrize("change,message", [
    ({"budgets": (0, 6)}, "budget 0 must exceed the warm size 4"),
    ({"budgets": (4, 6)}, "budget 4 must exceed the warm size 4"),
    ({"budgets": (6, 6)}, "budget 6 is repeated"),
    ({"budgets": ()}, "empty budget list"),
    ({"arms": (("random", "exploit"), ("random", "exploit"))},
     "treatment 'random/exploit' is repeated"),
    ({"arms": ()}, "empty treatment list"),
    ({"arms": (("llm", "random"),)}, "treatment 'llm/random' is not an arm"),
    ({"arms": (("baseline", "exploit"),)},
     "treatment 'baseline/exploit' is not an arm"),
    ({"repeats": 0}, "repeats must be >= 1, got 0"),
], ids=["budget-0", "budget-4", "repeated-budget", "no-budget", "repeated-arm",
        "no-arm", "llm-random", "baseline-exploit", "no-repeat"])
def test_grid_spec_refuses_a_grid_that_is_not_one_record_per_cell(change,
                                                                  message):
    """Run, each of these grids would write no cell at all, a record twice,
    a budget-0 record holding a larger budget's best, or records under an
    arm's wrong name (`llm/random` ran as `random/random`, and
    `baseline/exploit` as a cold-start exploit run)."""
    with pytest.raises(ValueError, match=re.escape(message)):
        GridSpec(**{"arms": (("random", "exploit"),), **change})


SMALL_GRID = GridSpec(
    arms=(("random", "exploit"), ("random", "random"), ("baseline", "baseline")),
    budgets=(6, 8), repeats=2)


def test_only_synthesizer_calls_leave_the_calling_thread(toy, monkeypatch):
    """At three jobs only the synthesizer calls and the parsing of their
    replies run on pool threads. Every cold start, prompt, mapping and
    label loop, and every random and baseline run, runs on the caller's
    thread."""
    threads: dict[str, set[int]] = {}

    def spied(name, original):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return original(*args, **kwargs)
        return wrapper

    for module, names in ((eng, ("cold_start", "label_tpe", "label_gp",
                                 "run_random", "run_baseline")),
                          (ws, ("build_prompt", "parse_response",
                                "map_to_pool"))):
        for name in names:
            monkeypatch.setattr(module, name, spied(name, getattr(module, name)))
    grid = GridSpec(arms=(("llm", "exploit"), ("llm", "ucb"), ("random", "ei"),
                          ("random", "explore"), ("random", "random"),
                          ("baseline", "baseline")), budgets=(6, 8), repeats=3)
    synth = spied("synthesizer", MockSynthesizer())
    completed(run_grid([toy], grid, synthesizer=synth, jobs=3))
    here = threading.get_ident()
    assert sorted(threads) == sorted(
        ["cold_start", "label_tpe", "label_gp", "run_random", "run_baseline",
         "build_prompt", "parse_response", "map_to_pool", "synthesizer"])
    for name in ("synthesizer", "parse_response"):
        assert here not in threads[name], name
    for name in set(threads) - {"synthesizer", "parse_response"}:
        assert threads[name] == {here}, name


def test_a_table_labels_while_later_tables_wait_on_the_synthesizer(
        auto93, toy, monkeypatch, sleeps):
    """At two jobs both tables' requests go out at once. toy's is answered
    only after auto93's naive-Bayes batch has run, which needs the label
    loops of the first table to run while the second's request is still
    in flight. Were the loops to wait for every reply, toy's first
    attempt would time out, and with it the rest: the run falls back."""
    batched = threading.Event()
    label_tpe = eng.label_tpe

    def spy(runs):
        label_tpe(runs)
        if runs and runs[0].ds is auto93:
            batched.set()
    monkeypatch.setattr(eng, "label_tpe", spy)
    mock = MockSynthesizer()
    timed_out = []  # after one timeout the retries fail at once

    def held(bundle, ranked, ds):
        if ds.name == "toy" and (timed_out or not batched.wait(5)):
            timed_out.append(True)
            raise ws.SynthesisError("toy's request was held to the end")
        return mock(bundle, ranked, ds)

    grid = GridSpec(arms=(("llm", "exploit"),), budgets=(10,), repeats=1)
    records = completed(run_grid([auto93, toy], grid, synthesizer=held, jobs=2))
    assert [(r["dataset"], r["fallback"]) for r in records] == [
        ("auto93", False), ("toy", False)]


def test_run_grid_refuses_two_tables_of_one_name(toy):
    """Their naive-Bayes runs would share cells and fit on the wrong
    table's rows."""
    other = shipped("auto93")
    other.name = "toy"
    grid = GridSpec((("random", "exploit"),), (10,), 1)
    with pytest.raises(ValueError,
                       match=re.escape("datasets 0 and 1 are both named 'toy'")):
        run_grid([toy, other], grid)


def test_run_grid_is_schedule_independent(toy, monkeypatch):
    prefix = curve_prefixes(monkeypatch)
    serial = completed(run_grid([toy], SMALL_GRID, jobs=1))
    threaded = completed(run_grid([toy.fresh()], SMALL_GRID, jobs=3))
    assert [(r, prefix(r)) for r in serial] == [
        (r, prefix(r)) for r in threaded]
    # active and random arms: 2 budgets x 2 repeats; baseline runs once
    assert len(serial) == 4 + 4 + 1


def test_run_grid_baseline_budget_is_the_row_count(toy):
    results = completed(run_grid([toy], SMALL_GRID))
    base = [r for r in results if r["acquire"] == "baseline"]
    assert len(base) == 1
    assert base[0]["budget"] == 12


def test_run_grid_skips_oversized_budgets(toy):
    grid = GridSpec(arms=(("random", "exploit"),), budgets=(6, 99), repeats=1)
    out = run_grid([toy], grid)
    assert [r["budget"] for r in completed(out)] == [6]
    assert out.skipped == {"toy": [99]}


def test_run_grid_results_are_sorted(toy):
    records = completed(run_grid([toy], SMALL_GRID))
    keys = [(r["dataset"], r["start"], r["acquire"], r["budget"], r["repeat"])
            for r in records]
    assert keys == sorted(keys)


def test_run_grid_reports_failures_without_dying(toy):
    grid = GridSpec(arms=(("llm", "exploit"), ("random", "random")),
                    budgets=(6,), repeats=2)
    out = run_grid([toy], grid, synthesizer=None)
    # both llm repeats fail, in run order: there is no synthesizer to call
    assert out.failures == [
        f"run failed: toy llm/exploit budget=6 repeat={rep}: "
        "ValueError: llm start needs a synthesizer" for rep in (0, 1)]
    assert out.events == []
    assert [(r["start"], r["repeat"]) for r in out.records] == [
        ("random", 0), ("random", 1)]


def test_run_grid_returns_events_and_failures_in_run_order(toy):
    grid = GridSpec(arms=(("llm", "exploit"),), budgets=(6,), repeats=2)
    outs = [run_grid([toy.fresh()], grid, synthesizer=SlowFirstBrokenSynth(),
                     jobs=jobs) for jobs in (1, 2)]
    for out in outs:
        assert out.records == []
        assert out.failures == [
            f"run failed: toy llm/exploit budget=6 repeat={rep}: "
            "TypeError: synthesizer broke" for rep in (0, 1)]
        # a run that fails partway keeps what it logged, stamped with its keys
        assert [(e["repeat"], e["seq"], e["event"]) for e in out.events] == [
            (0, 0, "request"), (1, 0, "request")]
        assert list(out.events[0])[:6] == [
            "dataset", "start", "acquire", "budget", "repeat", "seq"]
    assert outs[0] == outs[1]


def test_failure_messages_name_the_exception_type(toy):
    """An exception with an empty message still says what went wrong."""
    def silent(bundle, ranked, ds):
        raise threading.BrokenBarrierError

    grid = GridSpec(arms=(("llm", "exploit"),), budgets=(6,), repeats=1)
    out = run_grid([toy], grid, synthesizer=silent)
    assert out.failures == [
        "run failed: toy llm/exploit budget=6 repeat=0: BrokenBarrierError: "]


@pytest.mark.parametrize("acquire", ["exploit", "ucb"])
def test_remote_requests_in_flight_are_bounded_by_jobs_alone(toy, monkeypatch,
                                                            chat_server, acquire):
    """Six jobs keep six requests in flight, for a naive-Bayes and a GP
    arm alike. The endpoint answers each request only once all six have
    arrived, so any cap below the job count would break the barrier and
    the runs would fall back."""
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    reply = render_synthetic([SyntheticRow(toy.rows[0].x, "better"),
                              SyntheticRow(toy.rows[1].x, "poorer")], toy)
    barrier = threading.Barrier(6, timeout=10)

    def respond(handler):
        barrier.wait()
        send(handler, completion(reply))

    server = chat_server(respond)
    synth = RemoteSynthesizer(server.url, "model-x")
    grid = GridSpec(arms=(("llm", acquire),), budgets=(10,), repeats=6)
    out = run_grid([toy], grid, synthesizer=synth, jobs=6)
    assert out.failures == []
    assert [r["repeat"] for r in out.records] == list(range(6))
    assert not any(r["fallback"] for r in out.records)
    assert len(server.seen) == 6
