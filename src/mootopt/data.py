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

Inside the label loop a row is its id. `Row` objects, which carry x cells,
serve only the warm start's prompt side; a best/rest split builds them
only when its halves are read as Rows. The loader parses each column once,
a numeric one into a float array, and zips the x columns into Rows; a
table's goals are one (rows, goals) array that only `objective` reads.

`normalize` and `encode_cells` are the one rule that turns cells into
numbers: min-max scaled numerics and alphabet codes for symbols. The
surrogates' views, the warm start's nearest-row mapping and the goal
scores all use it, and `x_views` holds each table's encoding, symbol
one-hot included, for both surrogates.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, TextIO, Union

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
    median: float = 0.0
    sd: float = 0.0


ColumnStats = Union[NumStats, dict[str, int]]  # a symbolic column's: its symbol counts


class Row(NamedTuple):
    id: int  # index in Dataset.rows
    x: tuple[Cell, ...]


def row_ids(rows) -> np.ndarray:
    """The ids of a list of Rows, as an array; an id array passes through."""
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


STRATA = ("low", "medium", "high")  # fewer than 6, 6-11, over 11 columns


def classify_dims(n_independent: int) -> str:
    """The stratum (one of STRATA) of a table's independent-column count."""
    return STRATA[(n_independent >= 6) + (n_independent > 11)]


class Dataset:
    """An in-memory MOOT table plus one run's label state.

    Columns, rows and stats are fixed after load and shared by every
    `fresh()` copy. The only mutable state is the label mask and the
    label order, which each copy owns, so runs can execute in parallel.
    """

    def __init__(self, name: str, columns: list[ColumnSpec], rows: list[Row],
                 stats: list[Optional[ColumnStats]], x_values: list, goals: np.ndarray):
        self.name = name
        self.columns = columns
        self.rows = rows
        self.stats = stats
        self._x_values = x_values  # per x column: a float array (numeric) or its cells
        self._goals = goals  # (rows, goals), NaN where missing; only objective reads it
        self.x_cols = [c for c in columns if c.role == INDEPENDENT]
        self.y_cols = [c for c in columns if c.role == GOAL]
        self.dims = classify_dims(len(self.x_cols))
        self._mask = np.zeros(len(rows), dtype=bool)
        self._order: list[int] = []
        self._cache: dict[Callable, object] = {}

    # -- label accounting ---------------------------------------------------

    @property
    def evaluations(self) -> int:
        return len(self._order)

    def label(self, i: int) -> None:
        """Reveal the goal values of row `i`. Each row may be labeled once."""
        if not 0 <= i < len(self.rows):
            raise IndexError(f"{self.name} has no row {i}")
        if self._mask[i]:
            raise ValueError(f"row {i} is already labeled")
        self._mask[i] = True
        self._order.append(i)

    def label_all(self) -> None:
        """Label every unlabeled row, in id order."""
        self._order += self.unlabeled_ids().tolist()
        self._mask[:] = True

    def is_labeled(self, ids):
        """Label flag of one id, or a boolean array for an array of ids or
        a slice (`slice(None)`: every row's flag)."""
        return self._mask[ids]

    @property
    def label_order(self) -> np.ndarray:
        """Labeled ids in the order they were labeled."""
        return np.array(self._order, dtype=np.intp)

    def labeled_ids(self) -> np.ndarray:
        return self._mask.nonzero()[0]

    def unlabeled_ids(self) -> np.ndarray:
        """The pool, in ascending id order."""
        return (~self._mask).nonzero()[0]

    def labeled_rows(self) -> list[Row]:
        return [self.rows[i] for i in self.labeled_ids()]

    # Stays because perfbench/tracer.py wraps it; nothing in src/ calls it.
    def unlabeled_rows(self) -> list[Row]:
        return [self.rows[i] for i in self.unlabeled_ids()]

    def fresh(self) -> "Dataset":
        """A copy with no labels; rows, stats and cached views are shared."""
        ds = copy.copy(self)
        ds._mask = np.zeros(len(self.rows), dtype=bool)
        ds._order = []
        return ds

    def cached(self, build: Callable):
        """`build(self)`, computed once per table and shared by fresh() copies,
        under `build` itself.

        Only values derived from the immutable cell data belong here.
        """
        try:
            return self._cache[build]
        except KeyError:
            value = self._cache[build] = build(self)
            return value

    def col_stats(self, col: ColumnSpec) -> Optional[ColumnStats]:
        return self.stats[col.index]

    # -- cached numeric views used by the surrogates -------------------------

    def x_views(self) -> dict:
        """Whole-table arrays over the independent columns, built once.

        Returns a dict with:
          num_pos     x-list positions of numeric columns
          sym_pos     x-list positions of symbolic columns
          alphabets   sorted observed values per symbolic column
          X_num       (n_rows, n_num) normalized values, NaN where missing
          X_sym       (n_rows, n_sym) alphabet codes, -1 where missing
          onehot      (n_rows, n_slots) 1 in the slot of each known symbol,
                      over one flat space that numbers every symbolic
                      column's alphabet in turn
        Only x values feed these views, so using them never leaks labels.
        """
        return self.cached(_build_x_views)


def normalize(values, st: NumStats) -> np.ndarray:
    """Map numeric values into [0,1] by a column's observed range.

    NaN (a missing cell) stays NaN, a degenerate column (hi == lo) maps
    to 0.5, and values outside the range clamp. This is the one min-max
    rule: x views, synthetic rows and goal scores all go through it.
    """
    v = np.asarray(values, dtype=float)
    if st.hi == st.lo:
        return np.where(np.isnan(v), np.nan, 0.5)
    # maximum/minimum let NaN through; fmax/fmin would turn it into a bound.
    return np.minimum(np.maximum((v - st.lo) / (st.hi - st.lo), 0.0), 1.0)


def encode_cells(cells, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Cell tuples aligned with `ds.x_cols`, as (numeric block, symbol codes),
    in the layout of `ds.x_views()`.

    The numeric block is C-ordered (len(cells), n_num), normalized, NaN
    where a cell is missing. Codes index the column's alphabet, -1 where a
    cell is missing or holds a symbol never seen at load.
    """
    return _encode_columns(list(zip(*cells)) or [()] * len(ds.x_cols), len(cells),
                           ds, ds.x_views())


def _encode_columns(columns, n: int, ds: Dataset, layout: dict):
    """encode_cells of `n` rows given as x columns (arrays or cell sequences)."""
    num_pos, sym_pos = layout["num_pos"], layout["sym_pos"]
    X_num = np.empty((n, len(num_pos)))
    for j, p in enumerate(num_pos):
        X_num[:, j] = normalize(columns[p], ds.col_stats(ds.x_cols[p]))  # None -> NaN
    X_sym = np.empty((n, len(sym_pos)), dtype=np.int64)
    for j, (p, alphabet) in enumerate(zip(sym_pos, layout["alphabets"])):
        code = {s: k for k, s in enumerate(alphabet)}
        X_sym[:, j] = [code.get(c, -1) for c in columns[p]]
    return X_num, X_sym


def _build_x_views(ds: Dataset) -> dict:
    sym_pos = [i for i, c in enumerate(ds.x_cols) if c.kind == SYMBOLIC]
    layout = {"num_pos": [i for i, c in enumerate(ds.x_cols) if c.kind == NUMERIC],
              "sym_pos": sym_pos,
              "alphabets": [sorted(ds.col_stats(ds.x_cols[p])) for p in sym_pos]}
    X_num, X_sym = _encode_columns(ds._x_values, len(ds.rows), ds, layout)
    starts = np.cumsum([0] + [len(a) for a in layout["alphabets"]])
    onehot = np.zeros((len(ds.rows), starts[-1]))
    i, j = np.nonzero(X_sym >= 0)
    onehot[i, starts[j] + X_sym[i, j]] = 1.0
    return {**layout, "X_num": X_num, "X_sym": X_sym, "onehot": onehot}


def _parse_column(col: ColumnSpec, raws, row_nos: list[int]) -> list[Cell]:
    """One column's stripped cells, None where missing. A numeric column's
    cells are floats; its first cell that is not finite raises ParseError."""
    if col.kind == NUMERIC:
        try:  # float() strips whitespace too; where it strips less, it raises
            values = list(map(float, raws))
            if all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
    cells = list(map(str.strip, raws))
    if col.kind != NUMERIC:
        return [None if c == MISSING else c for c in cells]
    try:
        values = [None if c == MISSING else float(c) for c in cells]
        if all(map(math.isfinite, filter(None, values))):  # skips None and 0.0
            return values
    except ValueError:
        pass
    row_no, cell = next((n, c) for n, c in zip(row_nos, cells) if not _finite(c))
    raise ParseError(f"row {row_no}: cell {cell!r} in numeric column "
                     f"{col.name!r} is not a finite number")


def _finite(cell: str) -> bool:
    try:
        return cell == MISSING or math.isfinite(float(cell))
    except ValueError:
        return False


def _column_stats(numeric: list[ColumnSpec], block: np.ndarray) -> list[NumStats]:
    """Numeric columns' stats from their C-ordered (columns, rows) block, NaN
    where missing. Columns with no missing cell are summarized in one pass
    along axis 1, which gives each the bits of its own 1-D pass."""
    gappy = np.isnan(block).any(axis=1)
    full = iter(_summaries(block[~gappy]))
    stats = [_summaries(v[None, ~np.isnan(v)])[0] if gap else next(full)
             for v, gap in zip(block, gappy.tolist())]
    for col, st in zip(numeric, stats):
        if not (math.isfinite(st.median) and math.isfinite(st.sd)):
            raise ParseError(f"numeric column {col.name!r} holds values too large "
                             f"to summarize, from {st.lo!r} to {st.hi!r}")
    return stats


def _summaries(block: np.ndarray) -> list[NumStats]:
    n = block.shape[1]
    if not n:
        return [NumStats() for _ in block]
    lo, hi = block.min(axis=1).tolist(), block.max(axis=1).tolist()
    # np.median's value, without the numpy.ma import np.median costs;
    # its sum starts at 0.0, so a median of -0.0 reads 0.0.
    h = n // 2
    part = np.partition(block, [h - 1, h] if n % 2 == 0 else h, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        median = 0.0 + part[:, h] if n % 2 else (0.0 + part[:, h - 1] + part[:, h]) / 2
        sd = block.std(axis=1)
    # numpy's mean of a constant column can miss it by an ulp; its sd is 0.
    return [NumStats(lo=l, hi=u, median=m, sd=s if l < u else 0.0)
            for l, u, m, s in zip(lo, hi, median.tolist(), sd.tolist())]


def mode(freq: dict[str, int]) -> str:
    """The most frequent symbol of a non-empty count table; ties go to
    the lowest string."""
    top = max(freq.values())
    return min(k for k, c in freq.items() if c == top)


def load_csv(source: Union[str, Path, TextIO], name: Optional[str] = None) -> Dataset:
    """Load a MOOT CSV from a path or an open text stream.

    All rows start unlabeled, and their goal values sit in one array that
    only objective's score vector reads. Column stats cover the whole file.
    They feed prompts and reports, and they also reach the surrogates:
    chebyshev normalizes goals by their whole-file ranges, so the targets a
    surrogate fits depend on the goal values of unlabeled rows too, until a
    label-honest mode scales by the labeled rows only (ROADMAP.md, item 6).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_csv(fh, name or Path(source).stem)
    # Strip the byte-order mark of Excel's "CSV UTF-8" export as the reader reads
    # line 1, so a quoted first cell stays quoted and the try sees that read's decode.
    lines = iter(source)
    reader = csv.reader(itertools.chain(
        (first.removeprefix("\ufeff") for first in itertools.islice(lines, 1)), lines))
    try:
        return _parse_records(reader, name or "<stream>")
    except csv.Error as e:
        raise ParseError(f"row {reader.line_num}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}") from None


def _parse_records(reader, name: str) -> Dataset:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: no header record") from None
    columns = parse_header(header)

    records, row_nos = [], []
    for row_no, record in enumerate(reader, start=2):
        if not record:
            continue  # blank trailing line
        if len(record) != len(columns):
            raise ParseError(
                f"row {row_no}: expected {len(columns)} cells, found {len(record)}")
        records.append(record)
        row_nos.append(row_no)
    if not records:
        raise ParseError("no data rows after the header")

    parsed = [_parse_column(c, raws, row_nos) for c, raws in zip(columns, zip(*records))]
    numeric = [c for c in columns if c.kind == NUMERIC and c.role != IGNORED]
    block = np.array([parsed[c.index] for c in numeric], dtype=float)  # None -> NaN
    arrays = dict(zip((c.index for c in numeric), block))
    stats = dict(zip(arrays, _column_stats(numeric, block)))
    stats.update((c.index, Counter(v for v in parsed[c.index] if v is not None))
                 for c in columns if c.kind == SYMBOLIC and c.role != IGNORED)
    x_cols = [c for c in columns if c.role == INDEPENDENT]
    rows = list(map(Row, range(len(records)), zip(*(parsed[c.index] for c in x_cols))))
    goals = np.stack([arrays[c.index] for c in columns if c.role == GOAL], axis=1)
    return Dataset(name, columns, rows, [stats.get(c.index) for c in columns],
                   [arrays.get(c.index, parsed[c.index]) for c in x_cols], goals)


def format_cell(v: Cell) -> str:
    if v is None:
        return MISSING
    if isinstance(v, float):
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    return str(v)
