"""Checks of the benchmark's own parts: the stub endpoint, the tracer, the
reference loop, and BENCHMARK.json agreeing with what run.py prints.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import random

import pytest

import workloads as wl

wl.import_mootopt()

import run  # noqa: E402
import stub  # noqa: E402
from mootopt import cli, engine, objective, warmstart  # noqa: E402
from mootopt.data import format_cell, load_csv  # noqa: E402
from calibrate import ReferenceLoop  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


@pytest.mark.parametrize("table", ["auto93", "nasa93dem", "SS-A"])
def test_stub_reply_parses_into_the_prompt_rows(table):
    ds = load_csv(wl.DATA / f"{table}.csv")
    e0 = warmstart.cold_start(ds, 4, random.Random(7))
    ranked = sorted(e0, key=lambda r: (objective.chebyshev(r, ds), r.id))
    bundle = warmstart.build_prompt(ranked, ds)
    request = {"model": "m", "messages": [{"role": r, "content": c}
                                          for r, c in bundle.messages()]}
    text = warmstart.extract_completion(stub.completion(request))
    rows = warmstart.parse_response(text, ds)
    parts = objective.split(ranked, ds)
    want = ([(warmstart.BETTER, r) for r in parts.best[:2]]
            + [(warmstart.POORER, r) for r in parts.rest[:2]])
    assert [(s.claim, [format_cell(v) for v in s.cells]) for s in rows] == \
        [(claim, [format_cell(v) for v in r.x]) for claim, r in want]


def test_warm_remote_records_no_fallbacks_at_either_job_count(tmp_path):
    files = [wl.DATA / "toy.csv", wl.DATA / "auto93.csv"]
    w = wl.WORKLOADS["warm-remote"]
    wl.remote_env()
    proc, port = wl.start_stub(delay_ms=1.0)
    outputs = []
    try:
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            argv = wl.run_argv(w, 3, files, out, port)
            argv[argv.index("--jobs") + 1] = str(jobs)
            assert cli.main(argv) == 0
            outputs.append((out / "results.jsonl").read_bytes())
    finally:
        wl.stop_stub(proc)
    assert proc.returncode == 0
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(records) == wl.expected_cells(w, files)
    assert not any(r["fallback"] for r in records)
    assert outputs[0] == outputs[1]


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    mods = {name: importlib.import_module(f"mootopt.{name}") for name in run.LAYERS}
    before = {(m, a): getattr(m, a) for m in (engine, warmstart, objective)
              for a in ("split", "chebyshev")}
    ds = load_csv(wl.DATA / "auto93.csv")
    tracer = Tracer()
    instrument(tracer, mods)
    try:
        engine.run_active(ds, engine.Treatment("llm", "exploit", 10),
                          warmstart.MockSynthesizer(), seed=5)
    finally:
        tracer.uninstall()
    assert {(m, a): getattr(m, a) for m, a in before} == before
    assert tracer.calls("engine.run_active") == 1
    # engine.split once per loop step; warmstart.split once for the prompt
    # and once in the mock synthesizer
    assert tracer.calls("objective.split") == \
        tracer.calls("likelihood.acquire_tpe") + 2
    assert tracer.counts()["objective.chebyshev"] > 0
    (root,) = [s for s in tracer.spans if s[3] == "engine.run_active"]
    assert root[2] is None
    assert all(s[1] == root[0] for s in tracer.spans)
    assert tracer.self_time("engine.run_active") < tracer.total("engine.run_active")


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_reference_loop_answers_from_a_child_that_stops_on_close():
    loop = ReferenceLoop()
    try:
        assert loop.seconds() > 0
    finally:
        loop.close()
    assert loop._proc.returncode == 0
