"""Active-learning loops plus the random-selection and baseline treatments.

A run owns a private copy of the dataset's label state (`Dataset.fresh()`:
a label mask and a label order over the shared rows), consumes at most its
budget of labels, and reports the best (lowest) chebyshev seen. The two
surrogate families share one loop: refit on every labeled row after each
new label, score the unlabeled pool, label the argmax. Inside the loop a
row is its id: the labeled set and the pool are id arrays read off the
mask, the acquisitions return the id to label, and scores come from the
table's cached chebyshev vector through `objective.reveal`. Row objects
appear only in the best/rest split and the warm start's prompt.
"""

from __future__ import annotations

import itertools
import random
import statistics
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import gp, likelihood
from .data import Dataset, sample_ids
# chebyshev stays bound here because perfbench/tracer.py counts calls by it.
from .objective import chebyshev, reveal, split  # noqa: F401
from .warmstart import LogFn, Synthesizer, cold_start, warm_start

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
               seed: int, log: Optional[LogFn] = None) -> RunResult:
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
        fallback = warm_start(work, B0, synthesizer, rng, log=log).fallback
    else:
        cold_start(work, B0, rng)
    while work.evaluations < t.budget:
        pool = work.unlabeled_ids()
        if len(pool) == 0:
            if log:
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
    """Label b1 uniform rows and keep the best; no surrogate involved."""
    if b1 > len(ds.rows):
        raise ValueError(f"b1={b1} exceeds the {len(ds.rows)} rows of {ds.name}")
    work = ds.fresh()
    rng = random.Random(seed)
    for i in sample_ids(rng, work.unlabeled_ids(), b1):
        work.label(i)
    trace, best = _trace(work)
    return RunResult(dataset=ds.name, treatment=Treatment("random", "random", b1),
                     repeat=0, seed=seed, best_chebyshev=best,
                     evaluations_used=work.evaluations, trace=trace)


def baseline_summary(ds: Dataset) -> tuple[float, float, float, float]:
    """(mean, lo, median, sd) of chebyshev over every row of the file."""
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


def derive_seed(dataset: str, start: str, acquire: str, budget: int,
                repeat: int, base_seed: int) -> int:
    """Stable per-run seed; crc32 keeps it platform-independent."""
    key = f"{dataset}|{start}|{acquire}|{budget}|{repeat}|{base_seed}"
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
    jobs: list[tuple[Treatment, int]] = []
    for start, acquire in grid.arms:
        if acquire == "baseline":
            jobs.append((Treatment(start, acquire, len(ds.rows)), 0))
            continue
        for budget in grid.budgets:
            if budget > len(ds.rows):
                continue  # tiny file: skip oversize budgets instead of dying
            for repeat in range(grid.repeats):
                jobs.append((Treatment(start, acquire, budget), repeat))
    return jobs


def _run_one(ds: Dataset, t: Treatment, repeat: int, grid: GridSpec,
             synthesizer: Optional[Synthesizer],
             log: Optional[LogFn]) -> RunResult:
    seed = derive_seed(ds.name, t.start, t.acquire, t.budget, repeat,
                       grid.base_seed)
    run_log = None
    if log is not None:
        seq = itertools.count()

        def run_log(event: dict) -> None:
            log({"dataset": ds.name, "start": t.start, "acquire": t.acquire,
                 "budget": t.budget, "repeat": repeat, "seq": next(seq),
                 **event})

    if t.acquire == "baseline":
        result = run_baseline(ds, seed)
    elif t.acquire == "random":
        result = run_random(ds, t.budget, seed)
    else:
        result = run_active(ds, t, synthesizer, seed, log=run_log)
    result.repeat = repeat
    return result


def run_grid(datasets: list[Dataset], grid: GridSpec,
             synthesizer: Optional[Synthesizer] = None, jobs: int = 1,
             log: Optional[LogFn] = None,
             on_error: Optional[Callable[[Dataset, Treatment, int, Exception], None]] = None
             ) -> list[RunResult]:
    """Every (dataset, arm, budget, repeat) cell, deterministically ordered.

    Jobs are independent (each run labels a fresh copy), so thread-level
    parallelism is safe; results are sorted afterwards so the output does
    not depend on scheduling. A failing run is reported through on_error
    and skipped rather than sinking the whole grid.
    """
    tasks = [(ds, t, rep) for ds in datasets for t, rep in _jobs_for(ds, grid)]

    def call(task):
        ds, t, rep = task
        try:
            return _run_one(ds, t, rep, grid, synthesizer, log)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            if on_error is None:
                raise
            on_error(ds, t, rep, exc)
            return None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(call, tasks))
    else:
        raw = [call(task) for task in tasks]
    results = [r for r in raw if r is not None]
    results.sort(key=lambda r: (r.dataset, r.treatment.start, r.treatment.acquire,
                                r.treatment.budget, r.repeat))
    return results
