"""Warm-start pipeline: prompts, parsing, mapping, and the fallback path."""

import random
import sys
import types

import numpy as np
import pytest
import requests

import oracles
from conftest import DATA, label_ids, shipped
from mootopt import warmstart as ws
from mootopt.data import NUMERIC, Row
from mootopt.objective import chebyshev, reveal
from mootopt.warmstart import (MockSynthesizer, PromptBundle, RemoteSynthesizer,
                               SyntheticRow, SynthesisError, build_prompt,
                               cold_start, extract_completion, map_to_pool,
                               mock_synthesize, parse_response,
                               render_synthetic, warm_start)


def by_cheb(ds):
    """Label every row and return them best-first, the prompt's ordering."""
    label_ids(ds)
    return sorted(ds.rows, key=lambda r: (chebyshev(r, ds), r.id))


# -- cold start ---------------------------------------------------------------

def test_cold_start_is_seed_deterministic(toy):
    a = [r.id for r in cold_start(toy, 4, random.Random(11))]
    b = [r.id for r in cold_start(toy.fresh(), 4, random.Random(11))]
    assert a == b
    assert toy.evaluations == 4


def test_cold_start_rejects_oversized_requests(toy):
    with pytest.raises(ValueError):
        cold_start(toy, 13, random.Random(0))


# -- prompt building ----------------------------------------------------------

def test_prompt_sections_and_roles(toy):
    e0 = cold_start(toy, 4, random.Random(2))
    ranked = sorted(e0, key=lambda r: (chebyshev(r, toy), r.id))
    bundle = build_prompt(ranked, toy)
    assert bundle.system.startswith(ws.SYSTEM_ROLE)
    assert bundle.examples.startswith("Given Examples:")
    assert "Generate Two New Examples that are Better" in bundle.task
    (role0, sys_text), (role1, user_text) = bundle.messages()
    assert (role0, role1) == ("system", "user")
    assert sys_text == bundle.system
    assert user_text == bundle.examples + "\n\n" + bundle.task


def test_prompt_meta_table_summarizes_columns(toy):
    e0 = cold_start(toy, 4, random.Random(2))
    bundle = build_prompt(e0, toy)
    assert "| Cores | NUM | lo=" in bundle.system
    assert "| kind | SYM | mode=" in bundle.system
    assert "sd=" in bundle.system


def test_prompt_examples_tag_best_and_rest(toy):
    e0 = cold_start(toy, 4, random.Random(2))
    ranked = sorted(e0, key=lambda r: (chebyshev(r, toy), r.id))
    text = build_prompt(ranked, toy).examples
    body = [l for l in text.splitlines()
            if l.startswith("|") and not set(l) <= set("| -")]
    rows = [l for l in body if "label" not in l]
    assert len(rows) == 4
    assert sum("Best" in l for l in rows) == 2
    assert sum("Rest" in l for l in rows) == 2


def test_prompt_shows_only_the_seed_rows(toy):
    e0 = cold_start(toy, 4, random.Random(2))
    before = toy.evaluations
    bundle = build_prompt(e0, toy)
    assert toy.evaluations == before  # rendering labels nothing
    rows = [l for l in bundle.examples.splitlines()
            if l.startswith("|") and ("Best" in l or "Rest" in l)]
    assert len(rows) == len(e0)


def test_prompt_needs_two_rows(toy):
    e0 = cold_start(toy, 2, random.Random(2))
    with pytest.raises(ValueError):
        build_prompt(e0[:1], toy)


# -- response parsing ---------------------------------------------------------

def test_parse_inverts_render(kanban):
    ranked = by_cheb(kanban)[:6]
    rows = mock_synthesize(ranked, kanban)
    parsed = parse_response(render_synthetic(rows, kanban), kanban)
    assert [r.claim for r in parsed] == [r.claim for r in rows]
    for got, want in zip(parsed, rows):
        assert got.cells == want.cells


def test_parse_tolerates_prose_and_tag_columns(make_ds):
    ds = make_ds("""
        A,B,Cost-
        0,0,1
        10,10,2
    """)
    text = """Sure! Here are better examples:

| A | B | note |
| --- | --- | --- |
| 1 | 2 | improved |
| 3 | 4 | improved |
and two poorer (worse) ones:
| A | B |
| --- | --- |
| 9 | 9 |
"""
    rows = parse_response(text, ds)
    assert [r.claim for r in rows] == ["better", "better", "poorer"]
    assert rows[0].cells == (1.0, 2.0)
    assert rows[1].cells == (3.0, 4.0)


def test_parse_skips_header_echo_and_clamps(make_ds):
    ds = make_ds("""
        A,Cost-
        0,1
        10,2
    """)
    text = """Better Examples:
| A |
| --- |
| A |
| 200 |
Poorer Examples:
| A |
| --- |
| -50 |
"""
    rows = parse_response(text, ds)
    assert rows[0].cells == (10.0,)   # clamped into the observed range
    assert rows[1].cells == (0.0,)


def test_parse_drops_uncoercible_rows_and_caps_at_two(make_ds):
    ds = make_ds("""
        A,Cost-
        0,1
        10,2
    """)
    text = """Better Examples:
| A |
| --- |
| ten |
| 1 |
| 2 |
| 3 |
Poorer Examples:
| A |
| --- |
| 8 |
"""
    rows = parse_response(text, ds)
    better = [r for r in rows if r.claim == "better"]
    assert [r.cells for r in better] == [(1.0,), (2.0,)]


def test_parse_reads_missing_markers(make_ds):
    ds = make_ds("""
        A,kind,Cost-
        0,a,1
        10,b,2
    """)
    text = """Better Examples:
| A | kind |
| --- | --- |
| ? | a |
Poorer Examples:
| A | kind |
| --- | --- |
| 5 | ? |
"""
    rows = parse_response(text, ds)
    assert rows[0].cells == (None, "a")
    assert rows[1].cells == (5.0, None)


def test_parse_requires_one_row_of_each_claim(make_ds):
    ds = make_ds("""
        A,Cost-
        0,1
        10,2
    """)
    text = """Better Examples:
| A |
| --- |
| 1 |
"""
    with pytest.raises(SynthesisError):
        parse_response(text, ds)


# -- mock synthesizer ---------------------------------------------------------

def test_mock_interpolates_toward_the_best_half_mean(make_ds):
    # Best half x = {0.4, 1.2}, mean 0.8; steps of 0.1 and 0.2 from the top
    # row land at 0.44 and 0.48.
    ds = make_ds("""
        W,Cost-
        0.4,1
        1.2,2
        5,9
        9,10
    """)
    ranked = by_cheb(ds)
    rows = mock_synthesize(ranked, ds)
    assert [r.claim for r in rows] == ["better", "better", "poorer", "poorer"]
    assert rows[0].cells[0] == pytest.approx(0.44, abs=1e-12)
    assert rows[1].cells[0] == pytest.approx(0.48, abs=1e-12)
    st = ds.col_stats(ds.x_cols[0])
    for r in rows:
        assert st.lo <= r.cells[0] <= st.hi


def test_mock_is_a_fixed_point_on_unanimous_best_rows(make_ds):
    ds = make_ds("""
        W,Cost-
        0.4,1
        0.4,2
        5,9
        9,10
    """)
    rows = mock_synthesize(by_cheb(ds), ds)
    assert rows[0].cells == (0.4,)
    assert rows[1].cells == (0.4,)


def test_mock_uses_the_mode_for_symbols(make_ds):
    ds = make_ds("""
        W,kind,Cost-
        1,a,1
        2,a,2
        8,b,9
        9,b,10
    """)
    rows = mock_synthesize(by_cheb(ds), ds)
    assert rows[0].cells[1] == "a"
    assert rows[2].cells[1] == "b"


def test_mock_synthesizer_emits_parseable_text(kanban):
    ranked = by_cheb(kanban)[:6]
    bundle = build_prompt(ranked, kanban)
    text = MockSynthesizer()(bundle, ranked, kanban)
    parsed = parse_response(text, kanban)
    claims = [r.claim for r in parsed]
    assert claims.count("better") == 2 and claims.count("poorer") == 2


# -- mapping synthetic rows onto the pool --------------------------------------

def test_map_prefers_exact_matches(make_ds):
    ds = make_ds("""
        A,kind,Cost-
        1,a,1
        2,b,2
        3,a,3
    """)
    synth = [SyntheticRow(cells=(2.0, "b"), claim="better")]
    assert map_to_pool(synth, ds.unlabeled_ids(), ds).tolist() == [1]


def test_map_deduplicates_hits_in_order(make_ds):
    ds = make_ds("""
        A,Cost-
        0,1
        10,2
    """)
    synth = [SyntheticRow(cells=(9.0,), claim="better"),
             SyntheticRow(cells=(0.4,), claim="poorer"),
             SyntheticRow(cells=(9.9,), claim="better")]
    assert map_to_pool(synth, ds.unlabeled_ids(), ds).tolist() == [1, 0]


def test_map_rejects_an_empty_pool(make_ds):
    ds = make_ds("""
        A,Cost-
        0,1
        10,2
    """)
    with pytest.raises(ValueError):
        map_to_pool([SyntheticRow(cells=(1.0,), claim="better")],
                    ds.unlabeled_ids()[:0], ds)


def test_map_matches_an_x_distance_oracle(make_ds):
    ds = make_ds("""
        A,B,kind,Cost-
        0,5,a,1
        2,?,b,2
        4,1,a,3
        6,9,b,4
        8,3,?,5
        10,7,a,6
        1,2,b,7
        3,8,a,8
        5,4,b,9
        7,6,a,10
    """)
    synth = [SyntheticRow(cells=(2.5, 3.0, "a"), claim="better"),
             SyntheticRow(cells=(7.7, 6.2, "b"), claim="poorer"),
             SyntheticRow(cells=(0.1, 4.9, "zzz"), claim="poorer")]
    got = map_to_pool(synth, ds.unlabeled_ids(), ds).tolist()
    want = []
    for s in synth:
        probe = Row(id=-1, x=tuple(s.cells), y=tuple([None] * len(ds.y_cols)))
        dists = [(oracles.x_distance(probe, r, ds), r.id) for r in ds.rows]
        best = min(dists)[1]
        if best not in want:
            want.append(best)
    assert got == want


def _probe_rows(ds, seed):
    """Mock-synthesizer rows from a seeded cold start, plus copies with
    every other cell missing and with every symbol replaced by one never
    seen at load."""
    work = ds.fresh()
    ranked = sorted(cold_start(work, 6, random.Random(seed)),
                    key=lambda r: (chebyshev(r, work), r.id))
    rows = mock_synthesize(ranked, work)
    holed = [SyntheticRow(tuple(None if k % 2 == seed % 2 else v
                                for k, v in enumerate(r.cells)), r.claim)
             for r in rows]
    unseen = [SyntheticRow(tuple(v if c.kind == NUMERIC else "never-seen"
                                 for c, v in zip(ds.x_cols, r.cells)), r.claim)
              for r in rows]
    return work, rows + holed + unseen


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.csv")))
def test_squared_distances_equal_the_column_loop_bit_for_bit(name):
    """Each distance is summed column by column, numeric then symbolic, as
    the reference loop adds them; a pairwise sum would move the last bits
    and, on near ties, the mapped rows."""
    ds = shipped(name)
    for seed in range(4):
        work, e1 = _probe_rows(ds, seed)
        ids = work.unlabeled_ids()
        got = ws.squared_distances(e1, ids, work)
        want = oracles.squared_distances(e1, ids, work)
        assert got.shape == (len(e1), len(ids))
        assert got.tobytes() == want.tobytes()
        hits = ids[np.argmin(want, axis=1)].tolist()
        assert map_to_pool(e1, ids, work).tolist() == list(dict.fromkeys(hits))


# -- warm_start ---------------------------------------------------------------

def test_warm_start_is_seed_deterministic(kanban):
    other = kanban.fresh()
    a = warm_start(kanban, 4, MockSynthesizer(), random.Random(5))
    b = warm_start(other, 4, MockSynthesizer(), random.Random(5))
    assert kanban.label_order.tolist() == other.label_order.tolist()
    assert a.fallback == b.fallback == False  # noqa: E712


def test_warm_start_label_budget_is_bounded(kanban):
    for seed in range(8):
        work = kanban.fresh()
        res = warm_start(work, 4, MockSynthesizer(), random.Random(seed))
        assert 4 <= work.evaluations <= 8
        assert not res.fallback


def test_warm_start_can_land_inside_a_sweet_spot(kanban):
    warm_start(kanban, 4, MockSynthesizer(), random.Random(36))
    cold, added = kanban.label_order[:4], kanban.label_order[4:]
    assert added.size, "the synthetic rows mapped somewhere new"
    assert reveal(cold, kanban).min() > 0.4
    assert reveal(added, kanban).min() < 0.2


def test_warm_start_requires_a_pair_of_seeds(toy):
    with pytest.raises(ValueError):
        warm_start(toy, 1, MockSynthesizer(), random.Random(0))


def test_warm_start_falls_back_after_three_failures(toy):
    calls = []

    def broken(bundle, e0, ds):
        calls.append(1)
        raise SynthesisError("no usable rows")

    events = []
    res = warm_start(toy, 4, broken, random.Random(0), log=events.append)
    assert len(calls) == 3
    assert res.fallback
    assert toy.evaluations == 4
    kinds = [e["event"] for e in events]
    assert kinds == ["request", "error"] * 3 + ["fallback"]
    assert "messages" in events[0]


def test_warm_start_logs_request_and_response(toy):
    events = []
    warm_start(toy, 4, MockSynthesizer(), random.Random(1), log=events.append)
    kinds = [e["event"] for e in events]
    assert kinds[:2] == ["request", "response"]
    roles = [m["role"] for m in events[0]["messages"]]
    assert roles == ["system", "user"]
    assert "Better Examples:" in events[1]["text"]


# -- remote client ------------------------------------------------------------

def test_remote_synthesizer_requires_a_key(monkeypatch):
    monkeypatch.delenv("MOOTOPT_API_KEY", raising=False)
    with pytest.raises(ValueError):
        RemoteSynthesizer("https://api.example/v1/chat", "model-x")


def test_remote_synthesizer_posts_the_bundle(monkeypatch, toy):
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    ranked = by_cheb(toy)[:4]
    reply = render_synthetic(mock_synthesize(ranked, toy), toy)
    work = toy.fresh()
    seen = {}

    def fake_post(url, json=None, timeout=None, headers=None):
        seen.update(url=url, payload=json, timeout=timeout, headers=headers)
        return types.SimpleNamespace(
            raise_for_status=lambda: None,
            json=lambda: {"choices": [{"message": {"content": reply}}]})

    monkeypatch.setitem(sys.modules, "requests",
                        types.SimpleNamespace(post=fake_post))
    synth = RemoteSynthesizer("https://api.example/v1/chat", "model-x")
    res = warm_start(work, 4, synth, random.Random(9))
    assert not res.fallback
    assert seen["url"] == "https://api.example/v1/chat"
    assert seen["timeout"] == 60.0
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["payload"]["model"] == "model-x"
    roles = [m["role"] for m in seen["payload"]["messages"]]
    assert roles == ["system", "user"]


@pytest.mark.parametrize("stage,exc", [
    ("raise_for_status", requests.HTTPError("503 Server Error: Service Unavailable")),
    ("json", requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0)),
    ("post", requests.ConnectionError("connection refused")),
], ids=["http-error", "non-json-body", "connection-refused"])
def test_remote_failures_count_as_failed_attempts(stage, exc, monkeypatch, toy):
    """An error status, a body that is not JSON and a refused connection
    each cost one attempt; after three the warm start falls back."""
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    posts = []

    def fail():
        raise exc

    def fake_post(url, json=None, timeout=None, headers=None):
        posts.append(url)
        if stage == "post":
            raise exc
        reply = {"raise_for_status": lambda: None, "json": lambda: {"content": ""}}
        reply[stage] = fail
        return types.SimpleNamespace(**reply)

    monkeypatch.setitem(sys.modules, "requests",
                        types.SimpleNamespace(post=fake_post))
    synth = RemoteSynthesizer("https://api.example/v1/chat", "model-x")
    events = []
    res = warm_start(toy, 4, synth, random.Random(9), log=events.append)
    assert len(posts) == 3
    assert res.fallback and toy.evaluations == 4
    assert [e["event"] for e in events] == ["request", "error"] * 3 + ["fallback"]
    assert {e["error"] for e in events if e["event"] == "error"} == {str(exc)}


@pytest.mark.parametrize("payload,want", [
    ("plain text", "plain text"),
    ({"choices": [{"message": {"content": "A"}}]}, "A"),
    ({"choices": [{"text": "B"}]}, "B"),
    ({"content": "C"}, "C"),
    ({"content": [{"text": "D"}]}, "D"),
    ({"message": {"content": "E"}}, "E"),
    ({"completion": "F"}, "F"),
    ({"text": "G"}, "G"),
    ({"output": "H"}, "H"),
])
def test_extract_completion_common_shapes(payload, want):
    assert extract_completion(payload) == want


def test_extract_completion_rejects_junk():
    with pytest.raises(SynthesisError):
        extract_completion({"usage": {"tokens": 3}})
