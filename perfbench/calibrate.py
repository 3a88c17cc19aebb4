"""A fixed reference loop that measures how fast the machine is right now.

The benchmark shares its machine with other work, and a grid's wall time
swings by half from one minute to the next with nothing changed. run.py
therefore times this loop between the steps of a grid and scales each
step's time by how far the passes around it were from REFERENCE_S. The
loop does the kinds of work a grid does: sorting rows with a key
function, Python-level max over row cells, numpy passes over a
1,500-row pool, and small Cholesky fits. It imports nothing from
mootopt, so no change to the program can change what it measures.

The loop runs in a process of its own, started once per benchmark run,
so that whatever the program leaves in the benchmark's process (a larger
heap, more garbage to collect, threads) does not slow the loop and get
divided out of the program's time:

    python3 perfbench/calibrate.py   # one loop time per line read on stdin
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Median seconds of one pass on the 2-core x86-64 VM (Python 3.11,
# numpy 2.4) where the benchmark was defined; calibrated figures are in
# that machine's time.
REFERENCE_S = 0.2


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    rows = [[rng.random() for _ in range(8)] for _ in range(2000)]
    acc = 0.0
    for _ in range(20):
        rows.sort(key=lambda r: (r[3], r[1]))
        acc += sum(max(abs(a - 0.5) for a in r) for r in rows)
    X = np.random.default_rng(0).random((1500, 8))
    for _ in range(750):
        d = ((X - X[0]) ** 2).sum(axis=1)
        acc += float(np.exp(-d).argmax())
    P = X[:, :5]
    mean, sd = P[:30].mean(axis=0), P[:30].std(axis=0) + 0.1
    for _ in range(600):
        lp = np.where(np.isnan(P), 0.0,
                      -0.5 * ((P - mean) / sd) ** 2 - np.log(sd)).sum(axis=1)
        K = np.exp(-((P[:30, None, :] - P[None, :30, :]) ** 2).sum(-1))
        L = np.linalg.cholesky(K + 1e-3 * np.eye(30))
        acc += float(lp.argmax()) + float(L[0, 0])
    if acc < 0:  # keeps the work observable
        raise AssertionError(acc)
    return time.perf_counter() - t0


class ReferenceLoop:
    """The reference loop in a child process; `seconds()` runs one pass."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        """Close the child's stdin, which ends it, and wait for it."""
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()


def main() -> int:
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
