"""Span tracing of mootopt's layers, applied from outside the package.

`instrument` replaces each public function of a layer, under every name
it is looked up by, with a wrapper that records a span: name, start,
end, its own id, the id of the span that caused it, and the trace id of
the run it belongs to. Several modules bind `split`, `chebyshev`,
`cold_start` and `warm_start` with `from ... import`, so each of those
bindings is wrapped; wrapping only the defining module would miss the
calls. `chebyshev` runs hundreds of thousands of times per grid, so it
is counted rather than spanned. Spans stay in memory until the traced
grid ends; `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter

RUN_SPANS = ("engine.run_active", "engine.run_random", "engine.run_baseline")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Spans and counters of one traced grid, gathered across threads."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, trace, parent, name, t0, t1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict] = []
        self._patches: list[tuple] = []
        self._adopt = None  # open span adopting spans of pool threads
        self._by_name = None  # durations per span name, built once at the end

    # -- per-thread state -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def add(self, name: str, n: int = 1) -> None:
        counts = self._counts()
        counts[name] = counts.get(name, 0) + n

    def counts(self) -> dict:
        total: dict = defaultdict(int)
        with self._lock:
            for counts in self._thread_counts:
                for name, n in counts.items():
                    total[name] += n
        return total

    # -- wrapping ---------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, root: bool = False,
             adopt: bool = False, extra=None) -> None:
        """Record a span around every call to `owner.attr`.

        root: the span opens a new trace (one CLI command or one grid run).
        adopt: while open, spans starting on an idle pool thread are its
        children. extra(tracer, args, kwargs, result) adds counters.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopt
            sid = next(tracer._ids)
            trace = sid if root or parent is None else parent[1]
            me = (sid, trace)
            stack.append(me)
            if adopt:
                tracer._adopt = me
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if adopt:
                    tracer._adopt = None
                tracer.spans.append(
                    (sid, trace, parent[0] if parent else None, name, t0, t1))
            if extra is not None:
                extra(tracer, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to `owner.attr` without recording spans."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries, read once the traced grid has ended --------------------------

    def durations(self, name: str) -> list[float]:
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for _, _, _, n, t0, t1 in self.spans:
                self._by_name[n].append(t1 - t0)
        return self._by_name.get(name, [])

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(n), 0.0) for n in names)

    def calls(self, *names: str) -> int:
        return sum(len(self.durations(n)) for n in names)

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans not covered by their children."""
        children: dict = defaultdict(list)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = 0.0
        for sid, _, _, n, t0, t1 in self.spans:
            if n != name:
                continue
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out += (t1 - t0) - covered
        return out


def instrument(tracer: Tracer, mods: dict) -> None:
    """Wrap the public functions of every mootopt layer under `tracer`."""
    cli, data, objective = mods["cli"], mods["data"], mods["objective"]
    likelihood, gp, warmstart = mods["likelihood"], mods["gp"], mods["warmstart"]
    engine, stats, report = mods["engine"], mods["stats"], mods["report"]

    def rows_scored(key: str, pos: int):
        def extra(t, args, kwargs, result):
            t.add(key, len(_arg(args, kwargs, pos, "pool")))
        return extra

    def prompt_bytes(t, args, kwargs, bundle):
        t.add("warmstart.prompt_bytes",
              sum(len(c.encode("utf-8")) for _, c in bundle.messages()))

    tracer.span(cli, "cmd_run", "cli.cmd_run", root=True)
    tracer.span(cli, "cmd_rank", "cli.cmd_rank", root=True)
    tracer.span(cli, "load_datasets", "cli.load_datasets")
    tracer.span(cli, "load_csv", "data.load_csv")
    tracer.span(data.Dataset, "fresh", "data.fresh")
    tracer.span(data.Dataset, "labeled_rows", "data.labeled_rows")
    tracer.span(data.Dataset, "unlabeled_rows", "data.unlabeled_rows")

    for module in (objective, engine, warmstart):
        tracer.span(module, "split", "objective.split")
    for module in (objective, engine, warmstart, gp):
        tracer.count(module, "chebyshev", "objective.chebyshev")

    tracer.span(likelihood, "fit", "likelihood.fit")
    tracer.span(likelihood, "acquire_tpe", "likelihood.acquire_tpe",
                extra=rows_scored("likelihood.rows_scored", 1))

    tracer.span(gp, "fit_gp", "gp.fit_gp",
                extra=lambda t, a, k, r: t.add(
                    "gp.train_rows", len(_arg(a, k, 0, "labeled"))))
    tracer.span(gp, "incumbent", "gp.incumbent")
    tracer.span(gp, "acquire_gp", "gp.acquire_gp",
                extra=rows_scored("gp.rows_scored", 2))

    for module in (engine, warmstart):
        tracer.span(module, "cold_start", "warmstart.cold_start")
    tracer.span(engine, "warm_start", "warmstart.warm_start",
                extra=lambda t, a, k, r: t.add("warmstart.fallbacks",
                                               int(r.fallback)))
    tracer.span(warmstart, "build_prompt", "warmstart.build_prompt",
                extra=prompt_bytes)
    for cls in (warmstart.MockSynthesizer, warmstart.RemoteSynthesizer):
        tracer.span(cls, "__call__", "warmstart.synth")
    tracer.span(warmstart, "parse_response", "warmstart.parse_response",
                extra=lambda t, a, k, r: t.add("warmstart.synthetic_rows", len(r)))
    tracer.span(warmstart, "map_to_pool", "warmstart.map_to_pool",
                extra=lambda t, a, k, r: t.add("warmstart.mapped_rows", len(r)))

    tracer.span(engine, "run_grid", "engine.run_grid", adopt=True)
    for name in RUN_SPANS:
        tracer.span(engine, name.split(".")[1], name, root=True)
    tracer.span(engine, "baseline_summary", "engine.baseline_summary")

    tracer.span(report, "write_reports", "report.write_reports")
    for module in (report, stats):
        tracer.span(module, "scott_knott", "stats.scott_knott")
    tracer.span(stats, "cliffs_delta", "stats.cliffs_delta")
    tracer.span(stats, "bootstrap_same", "stats.bootstrap_same")
