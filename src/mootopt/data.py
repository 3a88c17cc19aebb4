"""MOOT-format tables: typed columns, goal directions, per-run label state.

A MOOT CSV is a plain comma-separated file whose header encodes column
roles: a leading uppercase letter marks a numeric column, a trailing '+'
or '-' marks a goal to maximize or minimize, and a trailing 'X' marks a
column to ignore. Everything else is an independent input. Cells holding
'?' are missing.

Labeling a row means revealing its goal values; that is the scarce
resource every optimizer here budgets for. Rows are immutable and shared
by every copy of a table. A row's id is its index in `Dataset.rows`, and
the label state of a run is a boolean mask over those ids plus the ids in
the order they were labeled. `fresh()` hands each run a new mask and
order, so runs never see each other's labels.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

NUMERIC = "numeric"
SYMBOLIC = "symbolic"
INDEPENDENT = "independent"
GOAL = "goal"
IGNORED = "ignored"
MINIMIZE = "minimize"
MAXIMIZE = "maximize"

MISSING = "?"

Cell = Union[float, str, None]


class ParseError(ValueError):
    """Malformed header or body in a MOOT CSV."""


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    index: int
    kind: str  # NUMERIC | SYMBOLIC
    role: str  # INDEPENDENT | GOAL | IGNORED
    direction: Optional[str] = None  # MINIMIZE | MAXIMIZE for goals, else None


@dataclass
class NumStats:
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    median: float = 0.0
    sd: float = 0.0
    n: int = 0


@dataclass
class SymStats:
    mode: str = ""
    freq: dict[str, int] = field(default_factory=dict)
    n: int = 0


ColumnStats = Union[NumStats, SymStats]


@dataclass(frozen=True)
class Row:
    id: int  # index in Dataset.rows
    x: tuple[Cell, ...]
    y: tuple[Optional[float], ...]


def row_ids(rows) -> np.ndarray:
    """Ids of `rows`, given as Row objects or as an array of ids already."""
    if isinstance(rows, np.ndarray):
        return rows
    return np.fromiter((r.id for r in rows), dtype=np.intp, count=len(rows))


def sample_ids(rng, ids: np.ndarray, k: int) -> np.ndarray:
    """`rng.sample(list(ids), k)` as an array, without building the list.

    random.sample's draw depends only on the population's length, so
    sampling positions and indexing with them picks the same ids from the
    same rng state as sampling the ids (or their rows) directly.
    """
    return ids[rng.sample(range(len(ids)), k)]


def parse_header(names: list[str]) -> list[ColumnSpec]:
    """Turn header names into column specs per the MOOT naming convention.

    Raises ParseError on duplicate names, zero goal columns, or zero
    independent columns.
    """
    if not names:
        raise ParseError("empty header")
    seen: set[str] = set()
    specs: list[ColumnSpec] = []
    for i, raw in enumerate(names):
        name = raw.strip()
        if not name:
            raise ParseError(f"blank column name at position {i}")
        if name in seen:
            raise ParseError(f"duplicate column name: {name!r}")
        seen.add(name)
        if name.endswith("+"):
            specs.append(ColumnSpec(name, i, NUMERIC, GOAL, MAXIMIZE))
        elif name.endswith("-"):
            specs.append(ColumnSpec(name, i, NUMERIC, GOAL, MINIMIZE))
        else:
            kind = NUMERIC if name[0].isupper() else SYMBOLIC
            role = IGNORED if name.endswith("X") else INDEPENDENT
            specs.append(ColumnSpec(name, i, kind, role))
    if not any(s.role == GOAL for s in specs):
        raise ParseError("header has zero goal columns (none end with '+' or '-')")
    if not any(s.role == INDEPENDENT for s in specs):
        raise ParseError("header has zero independent columns")
    return specs


def classify_dims(n_independent: int) -> str:
    """low / medium / high stratum from the independent-column count."""
    if n_independent < 6:
        return "low"
    if n_independent <= 11:
        return "medium"
    return "high"


class Dataset:
    """An in-memory MOOT table plus one run's label state.

    Columns, rows and stats are fixed after load and shared by every
    `fresh()` copy. The only mutable state is the label mask and the
    label order, which each copy owns, so runs can execute in parallel.
    """

    def __init__(self, name: str, columns: list[ColumnSpec], rows: list[Row],
                 stats: list[Optional[ColumnStats]],
                 ignored_cells: Optional[list[list[str]]] = None):
        self.name = name
        self.columns = columns
        self.rows = rows
        self.stats = stats
        self.x_cols = [c for c in columns if c.role == INDEPENDENT]
        self.y_cols = [c for c in columns if c.role == GOAL]
        self.dims = classify_dims(len(self.x_cols))
        self._ignored_cells = ignored_cells
        self._mask = np.zeros(len(rows), dtype=bool)
        self._order: list[int] = []
        self._cache: dict[str, object] = {}

    # -- label accounting ---------------------------------------------------

    @property
    def evaluations(self) -> int:
        return len(self._order)

    def label(self, row: Row) -> Row:
        """Reveal a row's goal values. Each row may be labeled once."""
        if self._mask[row.id]:
            raise ValueError(f"row {row.id} is already labeled")
        self._mask[row.id] = True
        self._order.append(row.id)
        return row

    def is_labeled(self, ids):
        """Label flag of one id, or a boolean array for an array of ids."""
        return self._mask[ids]

    @property
    def label_order(self) -> list[Row]:
        return [self.rows[i] for i in self._order]

    def labeled_ids(self) -> np.ndarray:
        return self._mask.nonzero()[0]

    def unlabeled_ids(self) -> np.ndarray:
        """The pool, in ascending id order."""
        return (~self._mask).nonzero()[0]

    def labeled_rows(self) -> list[Row]:
        return [self.rows[i] for i in self.labeled_ids()]

    def unlabeled_rows(self) -> list[Row]:
        return [self.rows[i] for i in self.unlabeled_ids()]

    def fresh(self) -> "Dataset":
        """A copy with no labels; rows, stats and cached views are shared."""
        ds = copy.copy(self)
        ds._mask = np.zeros(len(self.rows), dtype=bool)
        ds._order = []
        return ds

    def cached(self, key: str, build):
        """`build(self)`, computed once per table and shared by fresh() copies.

        Only values derived from the immutable cell data belong here.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build(self)
            return value

    # -- normalization and distance ----------------------------------------

    def col_stats(self, col: ColumnSpec) -> Optional[ColumnStats]:
        return self.stats[col.index]

    def norm(self, col: ColumnSpec, v: float) -> float:
        """Map a numeric value into [0,1] using the column's observed range.

        Degenerate columns (hi == lo) map everything to 0.5 so they drop
        out of distances; out-of-range values clamp.
        """
        st = self.stats[col.index]
        if not isinstance(st, NumStats):
            raise ValueError(f"norm() needs a numeric column, got {col.name!r}")
        if st.hi == st.lo:
            return 0.5
        return min(1.0, max(0.0, (v - st.lo) / (st.hi - st.lo)))

    # -- cached numeric views used by the surrogates -------------------------

    def x_views(self) -> dict:
        """Whole-table arrays over the independent columns, built once.

        Returns a dict with:
          num_pos     x-list positions of numeric columns
          sym_pos     x-list positions of symbolic columns
          alphabets   sorted observed values per symbolic column
          X_num       (n_rows, n_num) normalized values, NaN where missing
          XT_num      X_num transposed into C order, one row per column
          num_missing (n_num,) True for columns with a missing cell
          X_sym       (n_rows, n_sym) alphabet codes, -1 where missing
        Only x values feed these views, so using them never leaks labels.
        """
        return self.cached("x_views", _build_x_views)


def _build_x_views(ds: Dataset) -> dict:
    num_pos = [i for i, c in enumerate(ds.x_cols) if c.kind == NUMERIC]
    sym_pos = [i for i, c in enumerate(ds.x_cols) if c.kind == SYMBOLIC]
    alphabets = []
    for p in sym_pos:
        st = ds.stats[ds.x_cols[p].index]
        alphabets.append(sorted(st.freq) if isinstance(st, SymStats) else [])
    n = len(ds.rows)
    X_num = np.full((n, len(num_pos)), np.nan)
    X_sym = np.full((n, len(sym_pos)), -1, dtype=np.int64)
    for i, row in enumerate(ds.rows):
        for j, p in enumerate(num_pos):
            v = row.x[p]
            if v is not None:
                X_num[i, j] = ds.norm(ds.x_cols[p], float(v))
        for j, p in enumerate(sym_pos):
            v = row.x[p]
            if v is not None:
                try:
                    X_sym[i, j] = alphabets[j].index(v)
                except ValueError:
                    pass  # value never seen at load; keep as missing
    XT_num = np.ascontiguousarray(X_num.T)
    return {"num_pos": num_pos, "sym_pos": sym_pos, "alphabets": alphabets,
            "X_num": X_num, "XT_num": XT_num,
            "num_missing": np.isnan(XT_num).any(axis=1), "X_sym": X_sym}


def x_distance(a: Row, b: Row, ds: Dataset) -> float:
    """Euclidean distance over independent columns.

    Numeric cells compare after normalization; symbolic cells contribute
    0 when equal else 1; whenever either cell is missing the column
    contributes 1 (pessimistic, keeps the distance bounded).
    """
    total = 0.0
    for i, col in enumerate(ds.x_cols):
        va, vb = a.x[i], b.x[i]
        if va is None or vb is None:
            d = 1.0
        elif col.kind == NUMERIC:
            d = ds.norm(col, float(va)) - ds.norm(col, float(vb))
        else:
            d = 0.0 if va == vb else 1.0
        total += d * d
    return math.sqrt(total)


def _parse_cell(raw: str, col: ColumnSpec, row_no: int) -> Cell:
    cell = raw.strip()
    if cell == MISSING:
        return None
    if col.kind == NUMERIC:
        try:
            return float(cell)
        except ValueError:
            raise ParseError(
                f"row {row_no}: non-numeric cell {cell!r} in numeric column {col.name!r}"
            ) from None
    return cell


def _column_stats(col: ColumnSpec, cells: list[Cell]) -> ColumnStats:
    if col.kind == NUMERIC:
        vals = [float(v) for v in cells if v is not None]
        if not vals:
            return NumStats()
        return NumStats(lo=min(vals), hi=max(vals),
                        mean=statistics.fmean(vals),
                        median=statistics.median(vals),
                        sd=statistics.pstdev(vals) if len(vals) > 1 else 0.0,
                        n=len(vals))
    freq: dict[str, int] = {}
    for v in cells:
        if v is not None:
            freq[str(v)] = freq.get(str(v), 0) + 1
    if not freq:
        return SymStats()
    mode = min((k for k, c in freq.items() if c == max(freq.values())))
    return SymStats(mode=mode, freq=freq, n=sum(freq.values()))


def load_csv(source: Union[str, Path, io.IOBase], name: Optional[str] = None) -> Dataset:
    """Load a MOOT CSV from a path or an open (byte or text) stream.

    All rows start unlabeled. Column stats cover the whole file. They feed
    prompts and reports, and they also reach the surrogates: chebyshev
    normalizes goals by their whole-file ranges, so the targets a surrogate
    fits (objective.reveal's cached score vector) depend on the goal values
    of unlabeled rows too. ROADMAP.md, open item 5, plans a label-honest
    mode that scales by the labeled rows only.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        ds_name = name or path.stem
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _load_csv_stream(fh, ds_name)
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
            hasattr(source, "read") and isinstance(source.read(0), bytes)):
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        return _load_csv_stream(text, name or "<stream>")
    return _load_csv_stream(source, name or "<stream>")


def _load_csv_stream(fh, name: str) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: no header record") from None
    columns = parse_header(header)
    x_cols = [c for c in columns if c.role == INDEPENDENT]
    y_cols = [c for c in columns if c.role == GOAL]
    ignored_cols = [c for c in columns if c.role == IGNORED]

    rows: list[Row] = []
    ignored_cells: list[list[str]] = []
    col_cells: list[list[Cell]] = [[] for _ in columns]
    for row_no, record in enumerate(reader, start=2):
        if not record:
            continue  # blank trailing line
        if len(record) != len(columns):
            raise ParseError(
                f"row {row_no}: expected {len(columns)} cells, found {len(record)}")
        parsed = [_parse_cell(raw, col, row_no) for raw, col in zip(record, columns)]
        for cells, v in zip(col_cells, parsed):
            cells.append(v)
        x = tuple(parsed[c.index] for c in x_cols)
        y = tuple(parsed[c.index] for c in y_cols)  # type: ignore[misc]
        rows.append(Row(id=len(rows), x=x, y=y))
        if ignored_cols:
            ignored_cells.append([record[c.index].strip() for c in ignored_cols])

    stats: list[Optional[ColumnStats]] = [
        None if c.role == IGNORED else _column_stats(c, col_cells[c.index])
        for c in columns
    ]
    return Dataset(name, columns, rows, stats,
                   ignored_cells if ignored_cols else None)


def format_cell(v: Cell) -> str:
    if v is None:
        return MISSING
    if isinstance(v, float):
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    return str(v)


def save_csv(ds: Dataset, target: Union[str, Path, io.IOBase]) -> None:
    """Write the dataset back out in its original column order."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            save_csv(ds, fh)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow([c.name for c in ds.columns])
    x_index = {c.index: i for i, c in enumerate(ds.x_cols)}
    y_index = {c.index: i for i, c in enumerate(ds.y_cols)}
    ignored_index = {c.index: i for i, c in
                     enumerate(c for c in ds.columns if c.role == IGNORED)}
    for row_pos, row in enumerate(ds.rows):
        record = []
        for col in ds.columns:
            if col.role == INDEPENDENT:
                record.append(format_cell(row.x[x_index[col.index]]))
            elif col.role == GOAL:
                record.append(format_cell(row.y[y_index[col.index]]))
            else:
                cells = ds._ignored_cells or []
                record.append(cells[row_pos][ignored_index[col.index]])
        writer.writerow(record)
