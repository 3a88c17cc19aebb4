"""Warm starts: random cold draws, then few-shot synthesis of promising rows.

Every run's first labels are a cold start: a few random rows. An LLM warm
start continues from whatever the run has labeled, once, before the
acquisition loop: split the labeled rows best/rest, render a three-part
prompt (role plus column metadata, tagged examples, task), ask a
synthesizer for two better and two poorer examples, parse its markdown
reply, then map each synthetic row onto its nearest unlabeled real row
and label that. The asking and parsing (`warm_attempts`) touch no label
state, so they may run on another thread than the prompt and the mapping.
A deterministic mock synthesizer makes the whole path runnable offline; a
remote client speaks the OpenAI chat-completions contract.

The prompt side works on Rows, because it renders their cells: the run's
labeled Rows feed the prompt and the synthesizers. The mapping back works
on ids: it takes the unlabeled ids and returns the ids to label.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol
from urllib.parse import urlsplit

import numpy as np

from .data import (MISSING, NUMERIC, Cell, Dataset, NumStats, Row,
                   encode_cells, format_cell, mode, sample_ids)
from .objective import chebyshev, split

BETTER = "better"
POORER = "poorer"

RETRY_WAITS = (1.0, 2.0)  # seconds slept before each extra synthesizer attempt
REQUEST_TIMEOUT = 60.0  # seconds one RemoteSynthesizer request may take
DEFAULT_KEY_ENV = "MOOTOPT_API_KEY"  # environment variable holding the API key

SYSTEM_ROLE = (
    'You are given a dataset with several features. The rows have been '
    'categorized into "Best" and "Rest" examples based on their overall '
    'performance. Below are the key features and their descriptions from '
    'the dataset:')

TASK_TEXT = """1. Generate Two New Examples that are Better:
These should outperform the given "Best" examples by optimizing the relevant features to better combinations.

2. Generate Two New Examples that are Poorer:
These should under perform the given "Rest" examples by modifying the relevant features to worse combinations.

Consider the inter-dependencies between features, and ensure that the generated examples follow logical consistency within the dataset's context.

Return the output in the same markdown structure:"""


class SynthesisError(RuntimeError):
    """Synthesizer returned nothing usable (parse or transport failure)."""


@dataclass(frozen=True)
class PromptBundle:
    system: str
    examples: str

    def messages(self) -> list[tuple[str, str]]:
        """(role, content) pairs for a chat endpoint; TASK_TEXT ends the user's."""
        return [("system", self.system),
                ("user", self.examples + "\n\n" + TASK_TEXT)]


@dataclass(frozen=True)
class SyntheticRow:
    """x cells aligned with the dataset's independent columns; no y values."""
    cells: tuple[Cell, ...]
    claim: str  # BETTER | POORER


class Synthesizer(Protocol):
    def __call__(self, bundle: PromptBundle, e0: list[Row],
                 ds: Dataset) -> str: ...


@dataclass
class WarmStartResult:
    """How a warm start ended; the rows it labeled are the label order."""
    fallback: bool  # true when synthesis failed and only cold rows remain


def cold_start(ds: Dataset, b0: int, rng: random.Random) -> list[Row]:
    """Label b0 distinct unlabeled rows uniformly at random."""
    pool = ds.unlabeled_ids()
    if b0 > len(pool):
        raise ValueError(f"b0={b0} exceeds the {len(pool)} unlabeled rows")
    chosen = sample_ids(rng, pool, b0)
    for i in chosen:
        ds.label(i)
    return [ds.rows[i] for i in chosen]


# -- prompt rendering --------------------------------------------------------

def _markdown_table(headers: list[str], body: list[list[str]]) -> str:
    """A `|` inside a cell is written `\\|`, which parse_response reads back."""
    line = lambda cells: "| " + " | ".join(c.replace("|", r"\|")
                                           for c in cells) + " |"
    lines = [line(headers), "|" + "|".join(" --- " for _ in headers) + "|"]
    lines += [line(cells) for cells in body]
    return "\n".join(lines)


def _fmt_stat(v: float) -> str:
    return format_cell(float(v)) if float(v) == int(v) else f"{v:g}"


def _meta_table(ds: Dataset) -> str:
    """Whole-file stats of the x columns. Goal columns stay out: their
    stats would show goal values of rows no run has labeled."""
    body = []
    for col in ds.x_cols:
        st = ds.col_stats(col)
        if isinstance(st, NumStats):
            stats = (f"lo={_fmt_stat(st.lo)}, hi={_fmt_stat(st.hi)}, "
                     f"median={_fmt_stat(st.median)}, sd={_fmt_stat(st.sd)}")
        else:
            pairs = sorted(st.items(), key=lambda kv: (-kv[1], kv[0]))
            shown = " ".join(f"{k}:{c}" for k, c in pairs)
            stats = f"mode={mode(st) if st else ''}, freq={shown}"
        kind = "NUM" if col.kind == NUMERIC else "SYM"
        body.append([col.name, kind, stats])
    return _markdown_table(["name", "kind", "stats"], body)


def build_prompt(e0: list[Row], ds: Dataset) -> PromptBundle:
    """Column metadata, then labeled rows (sorted by chebyshev) tagged Best or Rest."""
    best_ids = {r.id for r in split(e0, ds).best}
    examples = _markdown_table(
        [c.name for c in ds.x_cols] + ["label"],
        [[format_cell(v) for v in row.x] + ["Best" if row.id in best_ids else "Rest"]
         for row in e0])
    return PromptBundle(system=SYSTEM_ROLE + "\n\n" + ds.cached(_meta_table),
                        examples="Given Examples:\n\n" + examples)


def render_synthetic(rows: list[SyntheticRow], ds: Dataset) -> str:
    """The markdown reply shape the task asks for; inverse of parse_response."""
    headers = [c.name for c in ds.x_cols]
    sections = []
    for claim, title in ((BETTER, "Better Examples:"), (POORER, "Poorer Examples:")):
        body = [[format_cell(v) for v in r.cells] for r in rows if r.claim == claim]
        sections.append(title + "\n\n" + _markdown_table(headers, body))
    return "\n\n".join(sections)


# -- response parsing --------------------------------------------------------

_SEPARATOR = re.compile(r"^[\s:|\-]+$")


def _coerce_cells(cells: list[str], ds: Dataset) -> Optional[tuple[Cell, ...]]:
    out: list[Cell] = []
    for col, raw in zip(ds.x_cols, cells):
        cell = raw.strip().strip("*`").strip()
        if cell == MISSING:
            out.append(None)
            continue
        if col.kind != NUMERIC:
            out.append(cell)
            continue
        try:
            v = float(cell)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        st = ds.col_stats(col)
        out.append(min(st.hi, max(st.lo, v)))
    return tuple(out)


def parse_response(text: str, ds: Dataset) -> list[SyntheticRow]:
    """Pull better/poorer example rows out of a markdown completion.

    Tolerates prose around the tables: any non-table line naming "better",
    or else "poorer" or "worse", switches the claim applied to subsequent
    table rows. A `\\|` inside a cell is a `|`, not a cell boundary. A row
    has one cell per x column, plus one trailing tag cell only in a table
    whose header row is the x column names plus one; any other row is
    misaligned and dropped. Numeric cells clamp into the column's observed
    range (to 0 if it has none); rows with uncoercible cells are dropped;
    at most two rows per claim are kept.
    Raises SynthesisError unless at least one row of each claim survives.
    """
    n = len(ds.x_cols)
    header = [c.name.lower() for c in ds.x_cols]
    claim: Optional[str] = None
    tagged = False  # the current table's header has a trailing tag column
    rows: dict[str, list[SyntheticRow]] = {BETTER: [], POORER: []}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line.startswith("|"):
            tagged = False  # a table ends at its first non-table line
            low = line.lower()
            if "better" in low:
                claim = BETTER
            elif "poorer" in low or "worse" in low:
                claim = POORER
            continue
        if _SEPARATOR.match(line):
            continue
        # one outer pipe a side; a trailing `\|` ends the last cell
        cells = [c.strip().replace(r"\|", "|") for c in
                 re.split(r"(?<!\\)\|", re.sub(r"(?<!\\)\|$", "", line[1:]))]
        if len(cells) in (n, n + 1) and [c.lower() for c in cells[:n]] == header:
            tagged = len(cells) == n + 1
            continue
        if tagged and len(cells) == n + 1:
            cells = cells[:n]
        if claim is None or len(cells) != n:
            continue
        coerced = _coerce_cells(cells, ds)
        if coerced is not None and len(rows[claim]) < 2:
            rows[claim].append(SyntheticRow(cells=coerced, claim=claim))
    if not rows[BETTER] or not rows[POORER]:
        raise SynthesisError(
            f"usable rows: {len(rows[BETTER])} better, {len(rows[POORER])} poorer; "
            "need at least one of each")
    return rows[BETTER] + rows[POORER]


# -- synthesizers ------------------------------------------------------------

def _center(rows: list[Row], ds: Dataset) -> list[Cell]:
    """Per x column, the mean of rows' numeric cells or the mode of their
    symbols; None where every cell is missing."""
    center: list[Cell] = []
    for pos, col in enumerate(ds.x_cols):
        vals = [r.x[pos] for r in rows if r.x[pos] is not None]
        if not vals:
            center.append(None)
        elif col.kind == NUMERIC:
            center.append(sum(float(v) for v in vals) / len(vals))
        else:
            center.append(mode(Counter(str(v) for v in vals)))
    return center


def _interpolated(source: Row, toward: list[Row], ds: Dataset,
                  claim: str) -> list[SyntheticRow]:
    center = _center(toward, ds)
    out = []
    for f in (0.1, 0.2):
        cells: list[Cell] = []
        for col, v, c in zip(ds.x_cols, source.x, center):
            if c is None:
                cells.append(v)
            elif col.kind != NUMERIC or v is None:
                cells.append(c)
            else:
                cells.append(float(v) + f * (c - float(v)))
        out.append(SyntheticRow(cells=tuple(cells), claim=claim))
    return out


def mock_synthesize(e0: list[Row], ds: Dataset) -> list[SyntheticRow]:
    """Deterministic stand-in for the LLM.

    Better rows nudge the top-ranked row 10% then 20% of the way toward
    the best half's per-column mean (mode for symbolics); poorer rows do
    the same from the bottom-ranked row toward the rest half. Values never
    leave the observed column range because interpolation cannot overshoot
    either endpoint.
    """
    parts = split(e0, ds)
    return (_interpolated(parts.best[0], parts.best, ds, BETTER)
            + _interpolated(parts.rest[-1], parts.rest, ds, POORER))


class MockSynthesizer:
    """Offline synthesizer; renders mock rows through the markdown reply
    format so runs exercise the same parse path as a real endpoint."""

    def __call__(self, bundle: PromptBundle, e0: list[Row], ds: Dataset) -> str:
        return render_synthetic(mock_synthesize(e0, ds), ds)


def extract_completion(payload: object) -> str:
    """The reply text of a chat-completions response body:
    `choices[0].message.content`."""
    try:
        text = payload["choices"][0]["message"]["content"]  # type: ignore[index]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise SynthesisError(f"no completion text found in response: {payload!r:.200}")
    return text


class RemoteSynthesizer:
    """Chat-endpoint client. The request carries a model id plus ordered
    (role, content) messages; the key comes from an environment variable, so
    it never lands in configs or logs. A failed request raises SynthesisError."""

    def __init__(self, endpoint: str, model: str,
                 key_env: str = DEFAULT_KEY_ENV):
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http(s) URL with a host")
        key = os.environ.get(key_env)
        if not key:
            raise ValueError(
                f"remote synthesizer needs the API key in ${key_env}, which is unset")
        self.endpoint = endpoint
        self.model = model
        self._key = key

    def __call__(self, bundle: PromptBundle, e0: list[Row], ds: Dataset) -> str:
        import http.client  # the HTTP stack loads only when a request is sent
        import urllib.request
        payload = {"model": self.model, "messages": [
            {"role": role, "content": content} for role, content in bundle.messages()]}
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        # Unredirected, so no redirect target ever receives the key.
        request.add_unredirected_header("Authorization", f"Bearer {self._key}")
        try:  # a reply cut short raises an HTTPException, which is no OSError
            with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as resp:
                body = json.load(resp)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise SynthesisError(f"request to {self.endpoint} failed: {exc}") from exc
        return extract_completion(body)


# -- mapping synthetic rows onto the pool ------------------------------------

def squared_distances(e1: list[SyntheticRow], ids: np.ndarray,
                      ds: Dataset) -> np.ndarray:
    """Squared x distance from each synthetic row (axis 0) to each pool id
    (axis 1).

    A numeric column adds its squared normalized gap, a symbolic column 0
    on a match and 1 otherwise, and any column adds a full unit where
    either cell is missing or the synthetic symbol was never seen at load.
    """
    views = ds.x_views()
    s_num, s_sym = encode_cells([sr.cells for sr in e1], ds, views)
    pool_num = views["X_num"].T.take(ids, axis=1)  # C order, unlike [:, ids]
    pool_sym = views["X_sym"][ids].T
    gap = pool_num - s_num[:, :, None]
    code = s_sym[:, :, None]
    # One C-ordered (synthetic row, column, pool row) block of terms.
    # Reducing its middle axis adds the columns one at a time, numeric then
    # symbolic; any other memory order lets numpy sum pairwise, which moves
    # the last bits and with them, on near ties, the mapped rows.
    terms = np.concatenate((np.where(np.isnan(gap), 1.0, gap * gap),
                            (pool_sym != code) | (code < 0)), axis=1)
    return terms.sum(axis=1)


def map_to_pool(e1: list[SyntheticRow], pool: np.ndarray,
                ds: Dataset) -> np.ndarray:
    """The id in `pool` nearest each synthetic row, by squared_distances,
    deduplicated.

    Ties go to the lowest row id; duplicates keep first-hit order.
    """
    if len(pool) == 0:
        raise ValueError("cannot map synthetic rows onto an empty pool")
    ids = np.sort(pool)
    hits = ids[np.argmin(squared_distances(e1, ids, ds), axis=1)]
    _, first = np.unique(hits, return_index=True)
    return hits[np.sort(first)]


def warm_prompt(ds: Dataset, budget: int, synthesizer: Synthesizer,
                log: Callable[[dict], None]) -> partial:
    """A warm start's first step: prompt with the run's labeled rows (at
    least 2) ranked by chebyshev. Returns the second step, to call."""
    if budget < ds.evaluations:
        raise ValueError(
            f"budget {budget} is below the {ds.evaluations} labels spent")
    ranked = sorted(ds.labeled_rows(), key=lambda r: (chebyshev(r, ds), r.id))
    return partial(warm_attempts, build_prompt(ranked, ds), ranked, ds,
                   synthesizer, log)


def warm_attempts(bundle: PromptBundle, ranked: list[Row], ds: Dataset,
                  synthesizer: Synthesizer,
                  log: Callable[[dict], None]) -> Optional[list[SyntheticRow]]:
    """A warm start's second step, the only one that waits and the only
    one free of label state: the parsed rows of the first reply with at
    least one better and one poorer row, or None if no attempt has them.
    Each RETRY_WAITS entry adds an attempt, after sleeping that long."""
    for attempt, wait in enumerate((0.0,) + RETRY_WAITS):
        if wait:
            time.sleep(wait)
        try:
            log({"event": "request", "attempt": attempt,
                 "messages": [{"role": r, "content": c}
                              for r, c in bundle.messages()]})
            text = synthesizer(bundle, ranked, ds)
            log({"event": "response", "attempt": attempt, "text": text})
            return parse_response(text, ds)
        except SynthesisError as exc:
            log({"event": "error", "attempt": attempt, "error": str(exc)})
    return None


def warm_land(synth: Optional[list[SyntheticRow]], ds: Dataset, budget: int,
              log: Callable[[dict], None]) -> bool:
    """A warm start's last step: label each distinct pool row nearest a
    synthetic row, in hit order, until `budget` rows are labeled. With no
    rows the run keeps its cold rows; returns whether it so fell back."""
    if synth is None:
        log({"event": "fallback"})
        return True
    pool = ds.unlabeled_ids()
    if len(pool):
        for i in map_to_pool(synth, pool, ds)[:budget - ds.evaluations]:
            ds.label(i)
    return False


def warm_start(ds: Dataset, budget: int, synthesizer: Synthesizer,
               log: Callable[[dict], None]) -> WarmStartResult:
    """The three steps above on one thread: runs never abort on synthesis
    trouble, but fall back to the rows they had."""
    synth = warm_prompt(ds, budget, synthesizer, log)()
    return WarmStartResult(fallback=warm_land(synth, ds, budget, log))
