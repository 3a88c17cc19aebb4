"""Warm starts: random cold draws, or few-shot synthesis of promising rows.

The synthesis pipeline runs once, before the acquisition loop: label a few
random rows, split them best/rest, render a three-part prompt (role plus
column metadata, tagged examples, task), ask a synthesizer for two better
and two poorer examples, parse its markdown reply, then map each synthetic
row onto its nearest unlabeled real row and label that. A deterministic
mock synthesizer makes the whole path runnable offline; a remote client
speaks a minimal provider-agnostic chat contract.

The prompt side works on Rows, because it renders their cells: the cold
start returns Rows, and the prompt and the synthesizers read them. The
mapping back works on ids: it takes the unlabeled ids and returns the ids
to label.
"""

from __future__ import annotations

import math
import os
import random
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .data import (MISSING, NUMERIC, Cell, Dataset, NumStats, Row,
                   encode_cells, format_cell, sample_ids)
from .objective import chebyshev, split

BETTER = "better"
POORER = "poorer"

SYNTH_RETRIES = 2   # extra synthesizer attempts before a warm start falls back
MAX_CONCURRENT = 4  # requests one RemoteSynthesizer keeps in flight at once
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
    task: str

    def messages(self) -> list[tuple[str, str]]:
        """(role, content) pairs for a chat endpoint."""
        return [("system", self.system),
                ("user", self.examples + "\n\n" + self.task)]


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


LogFn = Callable[[dict], None]


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
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for cells in body:
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _fmt_stat(v: float) -> str:
    return format_cell(float(v)) if float(v) == int(v) else f"{v:g}"


def _meta_table(ds: Dataset) -> str:
    body = []
    for col in ds.columns:
        st = ds.stats[col.index]
        if st is None:
            continue
        if isinstance(st, NumStats):
            stats = (f"lo={_fmt_stat(st.lo)}, hi={_fmt_stat(st.hi)}, "
                     f"median={_fmt_stat(st.median)}, sd={_fmt_stat(st.sd)}")
        else:
            pairs = sorted(st.freq.items(), key=lambda kv: (-kv[1], kv[0]))
            shown = " ".join(f"{k}:{c}" for k, c in pairs)
            stats = f"mode={st.mode}, freq={shown}"
        kind = "NUM" if col.kind == NUMERIC else "SYM"
        body.append([col.name, kind, stats])
    return _markdown_table(["name", "kind", "stats"], body)


def render_examples(e0: list[Row], ds: Dataset) -> str:
    """Markdown table of e0's x values with a Best/Rest tag column."""
    parts = split(e0, ds)
    best_ids = {r.id for r in parts.best}
    headers = [c.name for c in ds.x_cols] + ["label"]
    body = [[format_cell(v) for v in row.x]
            + ["Best" if row.id in best_ids else "Rest"] for row in e0]
    return _markdown_table(headers, body)


def build_prompt(e0: list[Row], ds: Dataset) -> PromptBundle:
    """Prompt sections from labeled rows (expected sorted by chebyshev)."""
    if len(e0) < 2:
        raise ValueError("build_prompt needs at least 2 labeled rows")
    system = SYSTEM_ROLE + "\n\n" + _meta_table(ds)
    examples = "Given Examples:\n\n" + render_examples(e0, ds)
    return PromptBundle(system=system, examples=examples, task=TASK_TEXT)


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
        st = ds.stats[col.index]
        if isinstance(st, NumStats) and st.n > 0:
            v = min(st.hi, max(st.lo, v))
        out.append(v)
    return tuple(out)


def parse_response(text: str, ds: Dataset) -> list[SyntheticRow]:
    """Pull better/poorer example rows out of a markdown completion.

    Tolerates prose around the tables: any non-table line naming "better"
    or "poorer" switches the claim applied to subsequent table rows.
    Numeric cells clamp into the column's observed range; rows with
    uncoercible cells are dropped; at most two rows per claim are kept.
    Raises SynthesisError unless at least one row of each claim survives.
    """
    n = len(ds.x_cols)
    header = [c.name.lower() for c in ds.x_cols]
    claim: Optional[str] = None
    rows: dict[str, list[SyntheticRow]] = {BETTER: [], POORER: []}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line.startswith("|"):
            low = line.lower()
            if "better" in low:
                claim = BETTER
            elif "poorer" in low or "worse" in low:
                claim = POORER
            continue
        if claim is None or _SEPARATOR.match(line):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == n + 1:
            cells = cells[:n]  # trailing tag column
        elif len(cells) != n:
            continue
        if [c.lower() for c in cells] == header:
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

def _class_numeric_mean(rows: list[Row], pos: int) -> Optional[float]:
    vals = [float(r.x[pos]) for r in rows if r.x[pos] is not None]
    return sum(vals) / len(vals) if vals else None


def _class_mode(rows: list[Row], pos: int) -> Optional[str]:
    freq: dict[str, int] = {}
    for r in rows:
        v = r.x[pos]
        if v is not None:
            freq[str(v)] = freq.get(str(v), 0) + 1
    if not freq:
        return None
    top = max(freq.values())
    return min(k for k, c in freq.items() if c == top)


def _interpolated(source: Row, toward: list[Row], ds: Dataset, claim: str,
                  fractions: tuple[float, float]) -> list[SyntheticRow]:
    out = []
    for f in fractions:
        cells: list[Cell] = []
        for pos, col in enumerate(ds.x_cols):
            v = source.x[pos]
            if col.kind == NUMERIC:
                mean = _class_numeric_mean(toward, pos)
                if mean is None:
                    cells.append(v)
                elif v is None:
                    cells.append(mean)
                else:
                    cells.append(float(v) + f * (mean - float(v)))
            else:
                mode = _class_mode(toward, pos)
                cells.append(mode if mode is not None else v)
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
    top = parts.best[0]
    bottom = parts.rest[-1]
    return (_interpolated(top, parts.best, ds, BETTER, (0.1, 0.2))
            + _interpolated(bottom, parts.rest, ds, POORER, (0.1, 0.2)))


class MockSynthesizer:
    """Offline synthesizer; renders mock rows through the markdown reply
    format so runs exercise the same parse path as a real endpoint."""

    name = "mock"

    def __call__(self, bundle: PromptBundle, e0: list[Row], ds: Dataset) -> str:
        return render_synthetic(mock_synthesize(e0, ds), ds)


def extract_completion(payload: object) -> str:
    """Fish the completion text out of the few common response shapes."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, dict):
        choices = payload.get("choices")
        if isinstance(choices, list) and choices:
            first = choices[0]
            if isinstance(first, dict):
                msg = first.get("message")
                if isinstance(msg, dict) and isinstance(msg.get("content"), str):
                    return msg["content"]
                if isinstance(first.get("text"), str):
                    return first["text"]
        content = payload.get("content")
        if isinstance(content, str):
            return content
        if isinstance(content, list) and content:
            first = content[0]
            if isinstance(first, dict) and isinstance(first.get("text"), str):
                return first["text"]
        msg = payload.get("message")
        if isinstance(msg, dict) and isinstance(msg.get("content"), str):
            return msg["content"]
        for key in ("completion", "text", "output"):
            if isinstance(payload.get(key), str):
                return payload[key]
    raise SynthesisError(f"no completion text found in response: {payload!r:.200}")


class RemoteSynthesizer:
    """Chat-endpoint client. The request carries a model id plus ordered
    (role, content) messages; the API key comes from an environment
    variable so it never lands in configs or logs."""

    name = "remote"

    def __init__(self, endpoint: str, model: str,
                 key_env: str = DEFAULT_KEY_ENV):
        key = os.environ.get(key_env)
        if not key:
            raise ValueError(
                f"remote synthesizer needs the API key in ${key_env}, which is unset")
        self.endpoint = endpoint
        self.model = model
        self._key = key
        self._gate = threading.BoundedSemaphore(MAX_CONCURRENT)

    def __call__(self, bundle: PromptBundle, e0: list[Row], ds: Dataset) -> str:
        import requests

        payload = {"model": self.model,
                   "messages": [{"role": role, "content": content}
                                for role, content in bundle.messages()]}
        with self._gate:
            resp = requests.post(
                self.endpoint, json=payload, timeout=REQUEST_TIMEOUT,
                headers={"Authorization": f"Bearer {self._key}"})
        resp.raise_for_status()
        return extract_completion(resp.json())


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
    n_num = s_num.shape[1]
    pool_num = views["XT_num"].take(ids, axis=1)  # C order, unlike [:, ids]
    pool_sym = views["X_sym"][ids].T
    # One C-ordered (column, pool row) block of terms per synthetic row.
    # Reducing its first axis adds the columns one at a time, numeric then
    # symbolic; any other memory order lets numpy sum pairwise, which moves
    # the last bits and with them, on near ties, the mapped rows.
    terms = np.empty((n_num + s_sym.shape[1], len(ids)))
    d2 = np.empty((len(e1), len(ids)))
    for i in range(len(e1)):
        gap = pool_num - s_num[i, :, None]
        code = s_sym[i, :, None]
        terms[:n_num] = np.where(np.isnan(gap), 1.0, gap * gap)
        terms[n_num:] = (pool_sym != code) | (code < 0)
        d2[i] = terms.sum(axis=0)
    return d2


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


def warm_start(ds: Dataset, b0: int, synthesizer: Synthesizer,
               rng: random.Random,
               log: Optional[LogFn] = None) -> WarmStartResult:
    """Cold start, then synthesize/parse/map/label; cold rows alone on failure.

    The synthesizer gets SYNTH_RETRIES extra attempts; if none yields at least
    one better and one poorer row, the run proceeds from the cold start and
    the result is flagged as a fallback (runs never abort on synthesis
    trouble). Synthetic rows map onto the unlabeled pool, and each distinct
    hit costs one label.
    """
    if b0 < 2:
        raise ValueError(f"warm start needs b0 >= 2, got {b0}")
    e0 = cold_start(ds, b0, rng)
    ranked = sorted(e0, key=lambda r: (chebyshev(r, ds), r.id))
    bundle = build_prompt(ranked, ds)
    synth: Optional[list[SyntheticRow]] = None
    for attempt in range(SYNTH_RETRIES + 1):
        try:
            if log:
                log({"event": "request", "attempt": attempt,
                     "messages": [{"role": r, "content": c}
                                  for r, c in bundle.messages()]})
            text = synthesizer(bundle, ranked, ds)
            if log:
                log({"event": "response", "attempt": attempt, "text": text})
            synth = parse_response(text, ds)
            break
        except (SynthesisError, OSError, ValueError) as exc:
            if log:
                log({"event": "error", "attempt": attempt, "error": str(exc)})
    if synth is None:
        if log:
            log({"event": "fallback"})
        return WarmStartResult(fallback=True)
    pool = ds.unlabeled_ids()
    if len(pool):
        for i in map_to_pool(synth, pool, ds):
            ds.label(i)
    return WarmStartResult(fallback=False)
