"""Shared fixtures: shipped MOOT tables, an inline-table builder and a
loopback chat endpoint."""

import http.server
import io
import itertools
import json
import textwrap
import threading
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


class ChatServer(http.server.ThreadingHTTPServer):
    """A chat endpoint on 127.0.0.1 that answers each POST (or GET) by
    calling `respond(handler)`, after it appends the request's headers and
    JSON body (None if it has none) to `seen`."""

    def __init__(self, respond):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.respond = respond
        self.seen: list = []
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"

    def handle_error(self, request, client_address):
        pass  # a reply written after the client gave up fails; that is expected


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.seen.append((dict(self.headers), json.loads(body) if body else None))
        self.server.respond(self)

    do_GET = do_POST  # a redirected POST may come back as a GET

    def log_message(self, fmt, *args):
        pass


def send(handler, body: bytes, status: int = 200, length=None) -> None:
    """Reply with `body`, announcing `length` bytes (default: its length)."""
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body) if length is None else length))
    handler.end_headers()
    handler.wfile.write(body)


def completion(text: str) -> bytes:
    """A chat-completions response body whose reply is `text`."""
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")


@pytest.fixture
def chat_server():
    """`chat_server(respond)` starts a ChatServer and returns it; every
    server started stops at teardown."""
    servers = []

    def start(respond) -> ChatServer:
        server = ChatServer(respond)
        threading.Thread(target=server.serve_forever, args=(0.05,),
                         daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


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
