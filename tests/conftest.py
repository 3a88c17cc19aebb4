"""Shared fixtures: shipped MOOT tables plus an inline-table builder."""

import io
import itertools
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from mootopt import gp, warmstart
from mootopt.data import Dataset, load_csv

DATA = Path(__file__).resolve().parent.parent / "data"

_MASTERS: dict[str, Dataset] = {}


def shipped(name: str) -> Dataset:
    """Parse a table from data/ once, then hand out unlabeled copies."""
    if name not in _MASTERS:
        _MASTERS[name] = load_csv(DATA / f"{name}.csv")
    return _MASTERS[name].fresh()


def label_ids(ds: Dataset, ids=None) -> np.ndarray:
    """Label each id in `ids` (every row when None), in order; returns the
    ids as an array."""
    ids = np.arange(len(ds.rows)) if ids is None else np.asarray(ids, dtype=np.intp)
    for i in ids:
        ds.label(i)
    return ids


def gp_posterior(X, y, probes) -> tuple:
    """A gp.GpModel over raw vectors: its encoded rows are X's then the
    probes', and X's rows join it with targets y. Returns the model and
    its posterior mean and sd at the probes."""
    X = np.asarray(X, dtype=float)
    probes = np.asarray(probes, dtype=float).reshape(-1, X.shape[1])
    model = gp.GpModel(np.vstack([X, probes]))
    model.extend(np.arange(len(X)), np.asarray(y, dtype=float))
    return (model, *model.posterior(np.arange(len(X), len(X) + len(probes))))


class SlowFirstBrokenSynth:
    """A synthesizer that raises TypeError, which no warm start catches, on
    every call. Its first call waits first, so with two jobs the second
    run fails before the first."""

    def __init__(self):
        self.calls = itertools.count()

    def __call__(self, bundle, ranked, ds):
        if next(self.calls) == 0:
            time.sleep(0.2)
        raise TypeError("synthesizer broke")


@pytest.fixture
def toy() -> Dataset:
    return shipped("toy")


@pytest.fixture
def auto93() -> Dataset:
    return shipped("auto93")


@pytest.fixture
def nasa93dem() -> Dataset:
    return shipped("nasa93dem")


@pytest.fixture
def kanban() -> Dataset:
    return shipped("kanban")


@pytest.fixture
def sleeps(monkeypatch) -> list:
    """Record the warm start's retry waits instead of sleeping them."""
    waits: list = []
    monkeypatch.setattr(warmstart.time, "sleep", waits.append)
    return waits


@pytest.fixture
def make_ds():
    """Build a Dataset from inline CSV text (leading indentation stripped)."""
    def build(text: str, name: str = "inline") -> Dataset:
        clean = textwrap.dedent(text).strip() + "\n"
        return load_csv(io.StringIO(clean), name=name)
    return build


# One verdict line per acceptance check, printed after the usual summary
# so a skim of the log answers "which criteria hold" without grepping.

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif not report.passed:
        _ACCEPTANCE[name] = "SKIP" if report.skipped else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in _ACCEPTANCE.items():
        terminalreporter.write_line(f"[acceptance] {verdict} {name}")
