"""Active-learning loops plus the random-selection and baseline treatments.

A run owns a private copy of the dataset's label state (`Dataset.fresh()`:
a label mask and a label order over the shared rows), consumes at most its
budget of labels, and reports its best-so-far curve: the lowest chebyshev
seen after each label. A run starts with B0 random labels, to which an
`llm` start adds the synthesizer's mapped rows, then loops: fit the
labeled rows, score the unlabeled pool, label the argmax. A GP run loops
alone (`label_gp`); naive-Bayes runs loop in lockstep batches
(`label_tpe`) that share the table's design matrix but no label state.
Inside the loop a row is its id: the labeled set and the pool are read off
the label state, the best/rest split hands the fit id halves, the
acquisitions return the id to label, and scores come from the table's
cached chebyshev vector through `objective.reveal`. Row objects appear
only on the warm start's prompt side.

Runs are anytime: the budget only stops the loop, and a run's seed does
not depend on it, so a budget-b run labels exactly the first b rows of
any larger run. The grid therefore runs each (dataset, arm, repeat) once,
at the largest budget that fits the table, and reads every smaller
budget's record off that run's curve (`Run.record`). The baseline
is not a run: a grid gives each table one baseline record, read off its
summary.

Runs share no label state. In a grid only the synthesizer calls run on a
thread pool, since only they wait; the cold starts, prompts, mapping and
every label loop run on the calling thread, a table's loops as soon as its
requests are answered. Each `Run` keeps its curve, its transcript events
and its failure, and `run_grid` assembles their records in a fixed run
order, so the grid's outputs are the same at any job count. `run_active`
takes the same steps for one run alone, on one thread.
"""

from __future__ import annotations

import itertools
import random
import statistics
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

import numpy as np

from . import gp, likelihood
from .data import Dataset
# chebyshev stays bound here because perfbench/tracer.py counts calls by it.
from .objective import chebyshev, reveal, split  # noqa: F401
from .stats import pstdev
# warm_start stays bound here because perfbench/tracer.py wraps it.
from .warmstart import (Synthesizer, cold_start, warm_land, warm_prompt,
                        warm_start)  # noqa: F401

ACTIVE_ACQUIRES = likelihood.ACQUIRES + gp.ACQUIRES

B0 = 4  # labels consumed before the acquisition loop
DEFAULT_BUDGETS = (10, 15, 20, 25, 30)
DEFAULT_REPEATS = 20


@dataclass(frozen=True)
class Treatment:
    start: str    # "random" | "llm"
    acquire: str  # exploit | explore | ucb | pi | ei | random
    budget: int


@dataclass(eq=False)  # a run is itself: hashed and compared by identity
class Run:
    """One (dataset, treatment, repeat) under its seed, and what it
    produced: its label state once started, its curve once finished, its
    failure, and its transcript events in the order it logged them."""
    ds: Dataset
    t: Treatment
    seed: int
    repeat: int = 0
    work: Optional[Dataset] = None
    fallback: bool = False  # the warm start fell back to the cold rows
    # curve[k]: the lowest chebyshev after k + 1 labels
    curve: list[float] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    failure: Optional[str] = None

    def log(self, event: dict) -> None:
        """Keep an event, stamped with the run's keys and its position in
        the run."""
        t = self.t
        self.events.append({"dataset": self.ds.name, "start": t.start,
                            "acquire": t.acquire, "budget": t.budget,
                            "repeat": self.repeat, "seq": len(self.events),
                            **event})

    def start(self, synthesizer: Optional[Synthesizer]) -> Optional[partial]:
        """Take a surrogate-guided run's start up to its wait: B0 random
        labels, then for an `llm` start the prompt. Returns the warm
        start's synthesizer attempts, to call on any thread and `land`,
        or None for a random start."""
        ds, t = self.ds, self.t
        if t.acquire not in ACTIVE_ACQUIRES:
            raise ValueError(f"no surrogate-guided run has acquire={t.acquire!r}")
        if t.budget > len(ds.rows):
            raise ValueError(
                f"budget {t.budget} exceeds the {len(ds.rows)} rows of {ds.name}")
        if t.budget <= B0:
            raise ValueError(f"budget {t.budget} must exceed the warm size {B0}")
        if t.start == "llm" and synthesizer is None:
            raise ValueError("llm start needs a synthesizer")
        self.work = ds.fresh()
        cold_start(self.work, B0, random.Random(self.seed))
        if t.start == "llm":
            return warm_prompt(self.work, t.budget, synthesizer, self.log)
        return None

    def land(self, synth: Optional[list]) -> None:
        """Label an `llm` start's mapped rows, or note its fallback."""
        self.fallback = warm_land(synth, self.work, self.t.budget, self.log)

    def finish(self) -> None:
        """Read the run's curve off its labels, in label order."""
        scores = reveal(self.work.label_order, self.work).tolist()
        self.curve = list(itertools.accumulate(scores, min))

    def record(self, budget: int) -> dict:
        """What a run at `budget` reports, as a `results.jsonl` record.

        The budget only stops the loop, so a run at a smaller budget labels
        this run's first `budget` rows; the seed and the warm start's
        fallback are shared. A budget the run did not spend raises ValueError.
        """
        if not 1 <= budget <= len(self.curve):
            raise ValueError(f"budget {budget} is outside the run's 1..{len(self.curve)}")
        return {"dataset": self.ds.name, "start": self.t.start,
                "acquire": self.t.acquire, "budget": budget,
                "repeat": self.repeat, "seed": self.seed,
                "best": self.curve[budget - 1], "evals": budget, "fallback": self.fallback}


def label_tpe(runs: list[Run]) -> None:
    """Label each started naive-Bayes run of one table up to its budget,
    then finish it.

    The runs step in lockstep, each step one batched fit and one batched
    pick (see likelihood) over the runs still short of their budget;
    every run then labels its own pick. A run's labels do not depend on
    the runs beside it. The budget never exceeds the table, so no run's
    pool runs dry first.
    """
    while live := [run for run in runs if run.work.evaluations < run.t.budget]:
        model = likelihood.fit(
            [split(run.work.labeled_ids(), run.work) for run in live], runs[0].ds)
        pool = ~np.array([run.work.is_labeled(slice(None)) for run in live])
        picks = likelihood.acquire_tpe(model, pool, [run.t.acquire for run in live])
        for run, i in zip(live, picks.tolist()):
            run.work.label(i)
    for run in runs:
        run.finish()


def label_gp(run: Run) -> None:
    """Label a started GP run up to its budget, extending the last step's
    posterior by one row a label, then finish it."""
    work, model = run.work, None
    while work.evaluations < run.t.budget:
        model = gp.fit_gp(work.labeled_ids(), work, model)
        f_star = gp.incumbent(model)
        work.label(gp.acquire_gp(model, f_star, work.unlabeled_ids(),
                                 run.t.acquire))
    run.finish()


def run_active(ds: Dataset, t: Treatment, synthesizer: Optional[Synthesizer],
               seed: int) -> Run:
    """One surrogate-guided run under a hard label budget: its start, then
    its label loop (a naive-Bayes run's as a batch of one)."""
    run = Run(ds, t, seed)
    if ask := run.start(synthesizer):
        run.land(ask())
    if t.acquire in likelihood.ACQUIRES:
        label_tpe([run])
    else:
        label_gp(run)
    return run


def run_random(ds: Dataset, b1: int, seed: int) -> Run:
    """Label b1 uniform rows and keep the best; no surrogate involved.

    The rows are the first b1 of one shuffle of the whole table, so, as in
    an active run, a smaller budget labels a prefix of a larger one.
    random.sample at k=b1 would not: its algorithm depends on k. The loop
    makes exactly the first b1 draws of `random.sample(range(n), n)`,
    whose pool branch (draw `randrange(n - k)`, then move the pool's last
    live id into the gap) CPython always takes at k = n, and stops there.
    """
    n = len(ds.rows)
    if not 1 <= b1 <= n:
        raise ValueError(f"b1={b1} is not within the 1..{n} rows of {ds.name}")
    run = Run(ds, Treatment("random", "random", b1), seed, work=ds.fresh())
    rng = random.Random(seed)
    pool = list(range(n))
    for k in range(b1):
        j = rng.randrange(n - k)
        run.work.label(pool[j])
        pool[j] = pool[n - k - 1]
    run.finish()
    return run


def baseline_summary(ds: Dataset) -> tuple[float, float, float, float]:
    """(mean, lo, median, sd) of chebyshev over every row of the file.

    Computed once per table: the baseline record and the manifest read
    the same value.
    """
    return ds.cached(_summarize)


def _summarize(ds: Dataset) -> tuple[float, float, float, float]:
    work = ds.fresh()
    work.label_all()
    scores = reveal(work.label_order, work).tolist()
    return statistics.fmean(scores), min(scores), statistics.median(scores), pstdev(scores)


def run_baseline(ds: Dataset, seed: int = 0) -> dict:
    """The table's baseline record: label everything, report the median
    chebyshev as `best` and the sd as `spread`.

    By convention the budget column carries the row count, which is what
    makes the frugal treatments' budgets legible next to it.
    """
    *_, median, sd = baseline_summary(ds)
    return {"dataset": ds.name, "start": "baseline", "acquire": "baseline",
            "budget": len(ds.rows), "repeat": 0, "seed": seed, "best": median,
            "evals": len(ds.rows), "fallback": False, "spread": sd}


def derive_seed(dataset: str, start: str, acquire: str, repeat: int,
                base_seed: int) -> int:
    """Stable per-run seed; crc32 keeps it platform-independent.

    The budget is not part of the key: one run serves every budget.
    """
    key = f"{dataset}|{start}|{acquire}|{repeat}|{base_seed}"
    return zlib.crc32(key.encode("utf-8"))


# Every (start, acquire) arm a grid can run: each surrogate-guided
# acquisition from a warm or a cold start, then random selection and the
# baseline, which take no start of their own.
ARMS = tuple((start, acquire) for start in ("llm", "random")
             for acquire in ACTIVE_ACQUIRES) + (("random", "random"),
                                                ("baseline", "baseline"))
# The paper's nine-arm grid: the LLM warm-starts only the naive-Bayes arms.
DEFAULT_ARMS = tuple(arm for arm in ARMS
                     if arm[0] != "llm" or arm[1] in likelihood.ACQUIRES)


@dataclass(frozen=True)
class GridSpec:
    """The arms, budgets and repeats of a grid. Every rule of a valid grid
    lives here: a grid that would not give each cell one record raises
    ValueError."""
    arms: tuple[tuple[str, str], ...]  # (start, acquire) pairs from ARMS
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    repeats: int = DEFAULT_REPEATS
    base_seed: int = 1

    def __post_init__(self):
        names = [f"{start}/{acquire}" for start, acquire in self.arms]
        for kind, items in (("treatment", names), ("budget", self.budgets)):
            if not items:
                raise ValueError(f"empty {kind} list")
            for item in items:
                if items.count(item) > 1:
                    raise ValueError(f"{kind} {item!r} is repeated")
        for arm, name in zip(self.arms, names):
            if arm not in ARMS:
                raise ValueError(f"treatment {name!r} is not an arm")
        for b in self.budgets:
            if b <= B0:
                raise ValueError(f"budget {b} must exceed the warm size {B0}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@contextmanager
def _failing(runs: list[Run]) -> Iterator[None]:
    """If the block raises, fail each of `runs` with a message naming the
    run and the exception."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        for run in runs:
            t = run.t
            run.failure = (f"run failed: {run.ds.name} {t.start}/{t.acquire} "
                           f"budget={t.budget} repeat={run.repeat}: "
                           f"{type(exc).__name__}: {exc}")


@dataclass
class GridResult:
    """What a grid produced, independent of how many jobs ran it."""
    records: list[dict]   # every cell, sorted by dataset, arm, budget, repeat
    events: list[dict]    # transcript events, in run order
    failures: list[str]   # one message per failed run, in run order
    # each table's budgets larger than the table, which no run can spend
    skipped: dict[str, list[int]] = field(default_factory=dict)


def run_grid(datasets: list[Dataset], grid: GridSpec,
             synthesizer: Optional[Synthesizer] = None,
             jobs: int = 1) -> GridResult:
    """Every (dataset, arm, budget, repeat) cell, deterministically ordered.

    Each (dataset, arm, repeat) runs once, at its largest budget, and
    every budget's record is read off its curve by `Run.record`.
    A budget larger than a table has no cells there; `skipped` names it.
    The baseline arm is not a run but one record per table, read off the
    table's summary. Two tables of one name would share cells: refused.
    Only the synthesizer calls run on a pool of `jobs` threads, so `jobs`
    bounds the requests in flight. The calling thread starts every run,
    sending each `llm` start's attempts off once its prompt exists, then
    walks the tables: a table's runs land their attempts and its label
    loops run (its naive-Bayes runs as one `label_tpe` batch) while later
    tables' requests are in flight. Run order is (dataset, start, acquire,
    repeat); events and failures follow it, so no output depends on
    `jobs`. A failing run loses its cells, not the grid.
    """
    named = {}  # table name -> position in `datasets`
    for i, ds in enumerate(datasets):
        if (first := named.setdefault(ds.name, i)) != i:
            raise ValueError(f"datasets {first} and {i} are both named {ds.name!r}")
    # each table's budgets that fit it; a tiny table skips the rest
    fits = {ds: [b for b in grid.budgets if b <= len(ds.rows)]
            for ds in datasets}
    runs = sorted((Run(ds, Treatment(start, acquire, max(fits[ds])),
                       derive_seed(ds.name, start, acquire, rep, grid.base_seed), rep)
                   for ds in datasets if fits[ds]
                   for start, acquire in grid.arms if acquire != "baseline"
                   for rep in range(grid.repeats)),
                  key=lambda run: (run.ds.name, run.t.start, run.t.acquire,
                                   run.repeat))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        asks = {}  # run -> its warm start's attempts, in flight or answered
        for run in runs:
            if run.t.acquire in ACTIVE_ACQUIRES:
                with _failing([run]):
                    if ask := run.start(synthesizer):
                        asks[run] = pool.submit(ask)
        for _, table in itertools.groupby(runs, key=lambda run: run.ds):
            batch = []  # the table's started naive-Bayes runs
            for run in table:
                if run.failure is not None:
                    continue
                with _failing([run]):  # a failed run keeps its events
                    if run in asks:
                        run.land(asks.pop(run).result())
                    if run.t.acquire in likelihood.ACQUIRES:
                        batch.append(run)
                    elif run.t.acquire == "random":
                        run.curve = run_random(run.ds, run.t.budget,
                                               run.seed).curve
                    else:
                        label_gp(run)
            with _failing(batch):
                label_tpe(batch)
    records = [run_baseline(ds, derive_seed(ds.name, "baseline", "baseline", 0,
                                            grid.base_seed))
               for ds in datasets if ("baseline", "baseline") in grid.arms]
    records += [run.record(b) for run in runs
                if run.failure is None for b in fits[run.ds]]
    records.sort(key=lambda r: (r["dataset"], r["start"], r["acquire"],
                                r["budget"], r["repeat"]))
    return GridResult(records=records,
                      events=[e for run in runs for e in run.events],
                      failures=[run.failure for run in runs
                                if run.failure is not None],
                      skipped={ds.name: big for ds in datasets if (big := [
                          b for b in grid.budgets if b not in fits[ds]])})
