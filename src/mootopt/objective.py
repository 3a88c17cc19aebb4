"""Chebyshev scoring of labeled rows and the best/rest partition.

Every goal value is normalized to [0,1] against the full-file range, then
scored as the maximum gap to the per-goal ideal (0 for minimize goals,
1 for maximize goals). Smaller is better; the metric punishes a row if any
single goal is bad. Labeled rows sorted ascending split into a small
"best" set of size round(sqrt(N)) and a larger "rest" set.

Each table's scores are computed once, as one vector over all its rows.
`reveal` is the only reader of that vector, and it refuses rows the run
has not labeled, so no caller can see a goal it has not paid for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, MAXIMIZE, Row, normalize, row_ids

_SCORES = "chebyshev"  # Dataset.cached key; read only by reveal()


def ideal_point(ds: Dataset) -> list[float]:
    """Per-goal target in normalized space: 1 for maximize, 0 for minimize."""
    return [1.0 if c.direction == MAXIMIZE else 0.0 for c in ds.y_cols]


def _score_vector(ds: Dataset) -> np.ndarray:
    """Every row's chebyshev; a missing goal counts as maximally bad."""
    worst = np.zeros(len(ds.rows))
    for j, (col, target) in enumerate(zip(ds.y_cols, ideal_point(ds))):
        z = normalize([r.y[j] for r in ds.rows], ds.col_stats(col))  # None -> NaN
        worst = np.maximum(worst, np.where(np.isnan(z), 1.0, np.abs(z - target)))
    return worst


def reveal(ids, ds: Dataset):
    """Chebyshev of labeled rows, by id (one id or an array of ids).

    Raises ValueError if any of the rows is unlabeled.
    """
    hidden = ~ds.is_labeled(ids)
    if hidden.any():
        first = ids if np.ndim(ids) == 0 else np.asarray(ids)[hidden][0]
        raise ValueError(f"row {first} is unlabeled; its goal values are hidden")
    return ds.cached(_SCORES, _score_vector)[ids]


def chebyshev(row: Row, ds: Dataset) -> float:
    """Max normalized gap between a labeled row's goals and the ideal point."""
    return float(reveal(row.id, ds))


@dataclass(eq=False)
class BestRestSplit:
    """Labeled ids in ascending chebyshev; the first k are best.

    The fit reads the two halves as ids. `best` and `rest` build their
    Rows on request, for the warm start, which renders cells.
    """
    ranked: np.ndarray
    k: int
    rows: list[Row] = field(repr=False)  # the table's rows, to build Rows from

    @property
    def best(self) -> list[Row]:
        return [self.rows[i] for i in self.ranked[:self.k]]

    @property
    def rest(self) -> list[Row]:
        return [self.rows[i] for i in self.ranked[self.k:]]

    @property
    def n(self) -> int:
        return len(self.ranked)


def best_size(n: int) -> int:
    """round(sqrt(N)) with a floor of 1."""
    return max(1, int(math.sqrt(n) + 0.5))


def split(labeled, ds: Dataset) -> BestRestSplit:
    """Partition labeled rows (Row objects or ids) into best and rest ids.

    The engine splits its labeled ids and fits on the id halves; the warm
    start splits the Rows its prompt renders and reads the halves as Rows.

    Best is the first round(sqrt(N)) rows by ascending chebyshev. Ties at
    the boundary break by ascending row id, so repeated calls on the same
    rows agree exactly.
    """
    if len(labeled) < 2:
        raise ValueError(f"need at least 2 labeled rows to split, got {len(labeled)}")
    ids = row_ids(labeled)
    ranked = ids[np.lexsort((ids, reveal(ids, ds)))]
    return BestRestSplit(ranked=ranked, k=best_size(len(ranked)), rows=ds.rows)
