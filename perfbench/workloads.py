"""The benchmark's workloads and the pieces every entry point shares:
locating the source tree, the stub endpoint's lifetime, and the exact
`mootopt run` argument list a workload and seed stand for.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".perfbench_out"

BUDGETS = (10, 15, 20, 25, 30)  # the CLI's default budgets
STUB_DELAY_MS = 50.0  # over twice a remote run's own CPU time, so runs wait
STUB_MODEL = "perfbench-stub"
STUB_KEY_ENV = "PERFBENCH_STUB_KEY"


@dataclass(frozen=True)
class Workload:
    name: str
    treatments: str
    repeats: int
    jobs: int
    remote: bool = False


# warm-remote runs two workers, so two runs overlap their waits on the
# stub; grid-gp has one repeat because its grid costs about twice as much
# per record and a run needs several grids to take a median over.
WORKLOADS = {w.name: w for w in (
    Workload("grid-tpe", "llm/exploit,llm/explore,random/exploit,"
             "random/explore,random,baseline", repeats=2, jobs=1),
    Workload("grid-gp", "random/ucb,random/pi,random/ei,random,baseline",
             repeats=1, jobs=1),
    Workload("warm-remote", "llm/exploit,llm/explore", repeats=2, jobs=2,
             remote=True),
)}


class SourceMissing(RuntimeError):
    """The checkout lacks the program or its data; nothing can be measured."""


def data_files() -> list[Path]:
    """Every table under data/, the set each workload runs on."""
    files = sorted(DATA.glob("*.csv"))
    if not files:
        raise SourceMissing(f"expected the MOOT tables under {DATA}")
    return files


def import_mootopt():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "mootopt" / "__init__.py").is_file():
        raise SourceMissing(f"expected the mootopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mootopt
    if Path(mootopt.__file__).resolve().parent != SRC / "mootopt":
        raise SourceMissing(f"mootopt imported from {mootopt.__file__}, not {SRC}")
    return mootopt


def row_count(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for record in csv.reader(fh) if record) - 1


def expected_cells(w: Workload, files: list[Path]) -> int:
    """Records the grid must produce; budgets above a file's size are skipped."""
    total = 0
    for path in files:
        rows = row_count(path)
        for arm in w.treatments.split(","):
            if arm == "baseline":
                total += 1
            else:
                total += w.repeats * sum(1 for b in BUDGETS if b <= rows)
    return total


def run_argv(w: Workload, seed: int, files: list[Path], out: Path,
             port: int | None = None) -> list[str]:
    """Arguments to `mootopt run` for one grid of the workload."""
    argv = ["run", "--data", *map(str, files), "--treatments", w.treatments,
            "--budgets", ",".join(map(str, BUDGETS)),
            "--repeats", str(w.repeats), "--seed", str(seed),
            "--jobs", str(w.jobs), "--out", str(out)]
    if w.remote:
        argv += ["--synth", "remote", "--model", STUB_MODEL,
                 "--key-env", STUB_KEY_ENV,
                 "--endpoint", f"http://127.0.0.1:{port}/v1/chat/completions"]
    return argv


def remote_env() -> None:
    """Key and proxy settings the remote client needs to reach the stub."""
    os.environ[STUB_KEY_ENV] = "stub"
    for var in ("no_proxy", "NO_PROXY"):
        os.environ[var] = "127.0.0.1"


def start_stub(delay_ms: float = STUB_DELAY_MS) -> tuple[subprocess.Popen, int]:
    """Launch the stub endpoint; returns once it accepts connections."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--delay-ms", str(delay_ms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        stop_stub(proc)
        raise RuntimeError(f"stub endpoint failed to start: {line!r}")
    return proc, int(line.split()[1])


def stop_stub(proc: subprocess.Popen) -> None:
    """Close the stub's stdin, which shuts it down, and wait for it to exit."""
    try:
        proc.stdin.close()
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
