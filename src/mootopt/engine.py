"""Active-learning loops plus the random-selection and baseline treatments.

A run owns a private copy of the dataset's label state (`Dataset.fresh()`:
a label mask and a label order over the shared rows), consumes at most its
budget of labels, and reports the best (lowest) chebyshev seen. The two
surrogate families share one loop: refit on every labeled row after each
new label, score the unlabeled pool, label the argmax. Inside the loop a
row is its id: the labeled set and the pool are id arrays read off the
mask, the best/rest split hands the fit id halves, the acquisitions
return the id to label, and scores come from the table's cached
chebyshev vector through `objective.reveal`. Row objects appear only on
the warm start's prompt side.

Runs are anytime: the budget only stops the loop, and a run's seed does
not depend on it, so a budget-b run labels exactly the first b rows of
any larger run. The grid therefore runs each (dataset, arm, repeat) once,
at the largest budget that fits the table, and `cut`s every smaller
budget's result from that run's best-so-far trace.

Runs share no state. A grid run returns its result, its transcript events
and its failure as values, and `run_grid` assembles them in a fixed run
order, so the grid's outputs are the same at any job count.
"""

from __future__ import annotations

import itertools
import random
import statistics
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

from . import gp, likelihood
from .data import Dataset, sample_ids
# chebyshev stays bound here because perfbench/tracer.py counts calls by it.
from .objective import chebyshev, reveal, split  # noqa: F401
from .warmstart import LogFn, Synthesizer, cold_start, ignore, warm_start

TPE_ACQUIRES = likelihood.ACQUIRES
GP_ACQUIRES = gp.ACQUIRES
ACTIVE_ACQUIRES = TPE_ACQUIRES + GP_ACQUIRES
ALL_ACQUIRES = ACTIVE_ACQUIRES + ("random", "baseline")

B0 = 4  # labels consumed before the acquisition loop
DEFAULT_BUDGETS = (10, 15, 20, 25, 30)
DEFAULT_REPEATS = 20


@dataclass(frozen=True)
class Treatment:
    start: str    # "random" | "llm" | "baseline"
    acquire: str  # exploit | explore | ucb | pi | ei | random | baseline
    budget: int


@dataclass
class RunResult:
    dataset: str
    treatment: Treatment
    repeat: int
    seed: int
    best_chebyshev: float
    evaluations_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    warm_fallback: bool = False
    spread: Optional[float] = None  # baseline only: sd of all rows' chebyshev

    def to_record(self) -> dict:
        rec = {"dataset": self.dataset,
               "start": self.treatment.start,
               "acquire": self.treatment.acquire,
               "budget": self.treatment.budget,
               "repeat": self.repeat,
               "seed": self.seed,
               "best": self.best_chebyshev,
               "evals": self.evaluations_used,
               "fallback": self.warm_fallback}
        if self.spread is not None:
            rec["spread"] = self.spread
        return rec


def _trace(work: Dataset) -> tuple[list[tuple[int, float]], float]:
    """Best-so-far curve over the label order, plus the final best."""
    scores = reveal(work.label_order, work).tolist()
    curve = list(itertools.accumulate(scores, min))
    return list(enumerate(curve, start=1)), curve[-1] if curve else float("inf")


def run_active(ds: Dataset, t: Treatment, synthesizer: Optional[Synthesizer],
               seed: int, log: LogFn = ignore) -> RunResult:
    """One surrogate-guided run under a hard label budget."""
    if t.acquire not in ACTIVE_ACQUIRES:
        raise ValueError(f"run_active cannot handle acquire={t.acquire!r}")
    if t.budget > len(ds.rows):
        raise ValueError(
            f"budget {t.budget} exceeds the {len(ds.rows)} rows of {ds.name}")
    if t.budget <= B0:
        raise ValueError(f"budget {t.budget} must exceed the warm size {B0}")
    work = ds.fresh()
    rng = random.Random(seed)
    fallback = False
    if t.start == "llm":
        if synthesizer is None:
            raise ValueError("llm start needs a synthesizer")
        fallback = warm_start(work, B0, t.budget, synthesizer, rng,
                              log=log).fallback
    else:
        cold_start(work, B0, rng)
    while work.evaluations < t.budget:
        pool = work.unlabeled_ids()
        if len(pool) == 0:
            log({"event": "pool_exhausted", "evals": work.evaluations})
            break
        labeled = work.labeled_ids()
        if t.acquire in TPE_ACQUIRES:
            model = likelihood.fit(split(labeled, work), work)
            i = likelihood.acquire_tpe(model, pool, t.acquire)
        else:
            model = gp.fit_gp(labeled, work)
            f_star = gp.incumbent(labeled, work)
            i = gp.acquire_gp(model, f_star, pool, t.acquire, work, rng=rng)
        work.label(i)
    trace, best = _trace(work)
    return RunResult(dataset=ds.name, treatment=t, repeat=0, seed=seed,
                     best_chebyshev=best, evaluations_used=work.evaluations,
                     trace=trace, warm_fallback=fallback)


def run_random(ds: Dataset, b1: int, seed: int) -> RunResult:
    """Label b1 uniform rows and keep the best; no surrogate involved.

    The rows are the first b1 of one shuffle of the whole table, so, as in
    an active run, a smaller budget labels a prefix of a larger one.
    random.sample at k=b1 would not: its algorithm depends on k.
    """
    if b1 > len(ds.rows):
        raise ValueError(f"b1={b1} exceeds the {len(ds.rows)} rows of {ds.name}")
    work = ds.fresh()
    rng = random.Random(seed)
    pool = work.unlabeled_ids()
    for i in sample_ids(rng, pool, len(pool))[:b1]:
        work.label(i)
    trace, best = _trace(work)
    return RunResult(dataset=ds.name, treatment=Treatment("random", "random", b1),
                     repeat=0, seed=seed, best_chebyshev=best,
                     evaluations_used=work.evaluations, trace=trace)


def baseline_summary(ds: Dataset) -> tuple[float, float, float, float]:
    """(mean, lo, median, sd) of chebyshev over every row of the file.

    Computed once per table: the baseline arm and the manifest read the
    same value.
    """
    return ds.cached("baseline_summary", _summarize)


def _summarize(ds: Dataset) -> tuple[float, float, float, float]:
    work = ds.fresh()
    for i in range(len(work.rows)):
        work.label(i)
    scores = reveal(work.labeled_ids(), work).tolist()
    return (statistics.fmean(scores), min(scores),
            statistics.median(scores),
            statistics.pstdev(scores) if len(scores) > 1 else 0.0)


def run_baseline(ds: Dataset, seed: int = 0) -> RunResult:
    """Label everything; report the file's median chebyshev and its spread.

    By convention the budget column carries the row count, which is what
    makes the frugal treatments' budgets legible next to it.
    """
    mean, lo, median, sd = baseline_summary(ds)
    n = len(ds.rows)
    t = Treatment("baseline", "baseline", n)
    return RunResult(dataset=ds.name, treatment=t, repeat=0, seed=seed,
                     best_chebyshev=median, evaluations_used=n,
                     trace=[(n, median)], spread=sd)


def cut(result: RunResult, budget: int) -> RunResult:
    """What a run at `budget` reports, read off a run at a larger budget.

    The budget only stops the loop, so the smaller run's labels are the
    larger run's first min(budget, evals); the seed and the warm start's
    fallback are shared.
    """
    n = min(budget, result.evaluations_used)
    return replace(result, treatment=replace(result.treatment, budget=budget),
                   best_chebyshev=result.trace[n - 1][1], evaluations_used=n,
                   trace=result.trace[:n])


def derive_seed(dataset: str, start: str, acquire: str, repeat: int,
                base_seed: int) -> int:
    """Stable per-run seed; crc32 keeps it platform-independent.

    The budget is not part of the key: one run serves every budget.
    """
    key = f"{dataset}|{start}|{acquire}|{repeat}|{base_seed}"
    return zlib.crc32(key.encode("utf-8"))


@dataclass(frozen=True)
class GridSpec:
    arms: tuple[tuple[str, str], ...]  # (start, acquire) pairs
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    repeats: int = DEFAULT_REPEATS
    base_seed: int = 1


DEFAULT_ARMS = (
    ("llm", "exploit"), ("llm", "explore"),
    ("random", "exploit"), ("random", "explore"),
    ("random", "ucb"), ("random", "pi"), ("random", "ei"),
    ("random", "random"),
    ("baseline", "baseline"),
)


def _jobs_for(ds: Dataset, grid: GridSpec) -> list[tuple[Treatment, int]]:
    """One run per (arm, repeat), at the largest budget the table holds."""
    # tiny file: skip oversize budgets instead of dying
    fits = [b for b in grid.budgets if b <= len(ds.rows)]
    jobs: list[tuple[Treatment, int]] = []
    for start, acquire in grid.arms:
        if acquire == "baseline":
            jobs.append((Treatment(start, acquire, len(ds.rows)), 0))
        elif fits:
            jobs += [(Treatment(start, acquire, max(fits)), repeat)
                     for repeat in range(grid.repeats)]
    return jobs


def _cuts(result: RunResult, grid: GridSpec) -> list[RunResult]:
    """A run's result at each grid budget up to its own."""
    if result.treatment.acquire == "baseline":
        return [result]
    return [cut(result, b) for b in grid.budgets
            if b <= result.treatment.budget]


def _run_one(ds: Dataset, t: Treatment, repeat: int, grid: GridSpec,
             synthesizer: Optional[Synthesizer]
             ) -> tuple[Optional[RunResult], list[dict], Optional[str]]:
    """One grid task: its result (None if it failed), its transcript events
    and its failure message (None if it ran).

    A run that fails partway keeps the events it logged. Each event is
    stamped with the run's keys and its position in the run.
    """
    seed = derive_seed(ds.name, t.start, t.acquire, repeat, grid.base_seed)
    events: list[dict] = []
    result, failure = None, None
    try:
        if t.acquire == "baseline":
            result = run_baseline(ds, seed)
        elif t.acquire == "random":
            result = run_random(ds, t.budget, seed)
        else:
            result = run_active(ds, t, synthesizer, seed, log=events.append)
        result.repeat = repeat
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        failure = (f"run failed: {ds.name} {t.start}/{t.acquire} "
                   f"budget={t.budget} repeat={repeat}: "
                   f"{type(exc).__name__}: {exc}")
    stamped = [{"dataset": ds.name, "start": t.start, "acquire": t.acquire,
                "budget": t.budget, "repeat": repeat, "seq": seq, **event}
               for seq, event in enumerate(events)]
    return result, stamped, failure


@dataclass
class GridResult:
    """What a grid produced, independent of how many jobs ran it."""
    results: list[RunResult]  # every cell, sorted by dataset, arm, budget, repeat
    events: list[dict]        # transcript events, in run order
    failures: list[str]       # one message per failed run, in run order


def run_grid(datasets: list[Dataset], grid: GridSpec,
             synthesizer: Optional[Synthesizer] = None,
             jobs: int = 1) -> GridResult:
    """Every (dataset, arm, budget, repeat) cell, deterministically ordered.

    Each (dataset, arm, repeat) runs once, at its largest budget, and the
    cells of the smaller budgets are cut from it. Runs share no state:
    each labels a fresh copy of its table and returns its result, events
    and failure as values, so `jobs` threads may run them in any order.
    Run order is (dataset, start, acquire, repeat); events and failures
    follow it, so no output depends on `jobs`. A failing run loses its
    cells but not the rest of the grid.
    """
    tasks = sorted(((ds, t, rep) for ds in datasets
                    for t, rep in _jobs_for(ds, grid)),
                   key=lambda task: (task[0].name, task[1].start,
                                     task[1].acquire, task[2]))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        done = list(pool.map(
            lambda task: _run_one(*task, grid, synthesizer), tasks))
    results = [c for r, _, _ in done if r is not None for c in _cuts(r, grid)]
    results.sort(key=lambda r: (r.dataset, r.treatment.start, r.treatment.acquire,
                                r.treatment.budget, r.repeat))
    return GridResult(results=results,
                      events=[e for _, events, _ in done for e in events],
                      failures=[f for _, _, f in done if f is not None])
