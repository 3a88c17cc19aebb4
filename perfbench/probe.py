"""One set-up trial, run in a fresh interpreter by run.py.

Times what a `mootopt run` process pays before its grid starts: importing
mootopt, loading the workload's tables and, for warm-remote, bringing up
the stub endpoint. Prints the elapsed seconds as its only output line.

With `--reference` it times the reference set-up instead: importing the
numpy and scipy modules mootopt uses, which is most of a set-up's time
but nothing from mootopt. run.py runs a reference trial before the
first set-up trial and after each, and scales each set-up trial by how
far the two reference trials around it were from REFERENCE_S.

    python3 perfbench/probe.py grid-tpe
    python3 perfbench/probe.py --reference
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402 - the clock starts before any import
import sys  # noqa: E402

import workloads  # noqa: E402

# Median seconds of a reference trial on the machine where the benchmark
# was defined (see calibrate.py); calibrated set-up times are in its time.
REFERENCE_S = 0.65
REFERENCE_MODULES = ("numpy", "scipy.linalg", "scipy.spatial.distance",
                     "scipy.special")


def reference() -> float:
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - T0


def main(name: str) -> float:
    w = workloads.WORKLOADS[name]
    workloads.import_mootopt()
    from mootopt import cli
    cli.load_datasets([str(p) for p in workloads.data_files()])
    if not w.remote:
        return time.perf_counter() - T0
    proc, _ = workloads.start_stub()
    elapsed = time.perf_counter() - T0
    workloads.stop_stub(proc)
    return elapsed


if __name__ == "__main__":
    arg = sys.argv[1]
    print(repr(reference() if arg == "--reference" else main(arg)))
