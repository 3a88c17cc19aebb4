"""Warm-start pipeline: prompts, parsing, mapping, and the fallback path."""

import io
import math
import random
import socket
import sys
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DATA, completion, label_ids, send, shipped
from mootopt import warmstart as ws
from mootopt.data import NUMERIC, Row, load_csv
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


def warm(ds, budget, synthesizer, seed, log=lambda event: None):
    """A run's start: four seeded cold labels, then the warm start; returns
    whether it fell back."""
    cold_start(ds, 4, random.Random(seed))
    return warm_start(ds, budget, synthesizer, log=log)


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
    assert "Generate Two New Examples that are Better" in ws.TASK_TEXT
    (role0, sys_text), (role1, user_text) = bundle.messages()
    assert (role0, role1) == ("system", "user")
    assert sys_text == bundle.system
    assert user_text == bundle.examples + "\n\n" + ws.TASK_TEXT


def test_prompt_meta_table_summarizes_columns(toy):
    e0 = cold_start(toy, 4, random.Random(2))
    bundle = build_prompt(e0, toy)
    assert "| Cores | NUM | lo=" in bundle.system
    assert "| kind | SYM | mode=" in bundle.system
    assert "sd=" in bundle.system


def test_prompt_bytes_of_every_kind_of_column(make_ds):
    """A numeric column, tied symbol counts (the mode is the lowest symbol),
    and an all-missing column of either kind, byte for byte."""
    ds = make_ds("""
        Kloc,kind,os,Ram,effort-
        1,b,?,?,4
        2.5,a,?,?,3
        4,a,?,?,2
        8,b,?,?,1
    """)
    bundle = build_prompt(by_cheb(ds), ds)
    assert bundle.system == ws.SYSTEM_ROLE + "\n\n" + "\n".join([
        "| name | kind | stats |",
        "| --- | --- | --- |",
        "| Kloc | NUM | lo=1, hi=8, median=3.25, sd=2.60708 |",
        "| kind | SYM | mode=a, freq=a:2 b:2 |",
        "| os | SYM | mode=, freq= |",
        "| Ram | NUM | lo=0, hi=0, median=0, sd=0 |"])
    assert bundle.examples == "Given Examples:\n\n" + "\n".join([
        "| Kloc | kind | os | Ram | label |",
        "| --- | --- | --- | --- | --- |",
        "| 8 | b | ? | ? | Best |",
        "| 4 | a | ? | ? | Best |",
        "| 2.5 | a | ? | ? | Rest |",
        "| 1 | b | ? | ? | Rest |"])


def test_prompt_metadata_lists_x_columns_only(auto93):
    """Goal columns stay out of the system prompt: their whole-file stats
    would show goal values of rows no run has labeled."""
    system = build_prompt(cold_start(auto93, 4, random.Random(2)), auto93).system
    assert [c.name for c in auto93.y_cols] == ["Lbs-", "Acc+", "Mpg+"]
    for col in auto93.y_cols:
        assert col.name not in system
    for col in auto93.x_cols:
        assert f"| {col.name} |" in system


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


def test_a_pipe_in_a_cell_is_escaped_and_read_back(make_ds, sleeps):
    """Symbols holding `|` reach the prompt as `\\|`, survive the mock's
    markdown reply, and so cost the warm start no fallback or retry."""
    ds = make_ds("""
        W,paint,Cost-
        1,red|blue,1
        2,red|blue,2
        3,red|blue,3
        7,a|b|c,8
        8,a|b|c,9
        9,a|b|c,10
    """)
    work = ds.fresh()
    ranked = by_cheb(work)
    rows = mock_synthesize(ranked, work)
    parsed = parse_response(render_synthetic(rows, work), work)
    assert [r.cells for r in parsed] == [r.cells for r in rows]
    assert {r.cells[1] for r in parsed} == {"red|blue", "a|b|c"}
    bundle = build_prompt(ranked, work)
    assert "| red\\|blue |" in bundle.examples
    assert "mode=a\\|b\\|c" in bundle.system
    for seed in range(3):
        assert not warm(ds.fresh(), 6, MockSynthesizer(), seed)
    assert sleeps == []


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


def test_parse_drops_a_row_with_a_cell_its_header_lacks(make_ds):
    """One cell too many is a tag column only under a header row that has
    it; a header of the x columns alone resets that, mid-table too. A row
    loses one outer pipe a side: `||4|blue|` has three cells, and the
    escaped pipe of `|1|red\\||` ends its last cell."""
    ds = make_ds("""
        A,kind,Cost-
        0,red,1
        10,blue,2
    """)
    text = r"""Better Examples:
| A | kind |
| --- | --- |
||4|blue|
| 2 | red\ | blue |
| 3 | red |
|1|red\||
Poorer Examples:
| A | kind | note |
| --- | --- | --- |
| 9 | blue | worse |
| A | kind |
| 8 | blue | worse |
"""
    rows = parse_response(text, ds)
    assert [(r.claim, r.cells) for r in rows] == [("better", (3.0, "red")),
                                                  ("better", (1.0, "red|")),
                                                  ("poorer", (9.0, "blue"))]


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


def test_parse_clamps_a_column_with_no_values_to_zero(make_ds):
    """A numeric column with no values has lo = hi = 0, so its cells clamp
    to 0.0. Every pool cell there is missing, so the column adds a full
    unit to each distance whatever the cell: the rows map as unclamped."""
    ds = make_ds("""
        A,Empty,Cost-
        0,?,1
        4,?,2
        10,?,3
    """)
    text = """Better Examples:
| A | Empty |
| --- | --- |
| 9 | 7 |
Poorer Examples:
| A | Empty |
| --- | --- |
| 1 | -3 |
"""
    rows = parse_response(text, ds)
    assert [r.cells for r in rows] == [(9.0, 0.0), (1.0, 0.0)]
    raw = [SyntheticRow(cells=(9.0, 7.0), claim="better"),
           SyntheticRow(cells=(1.0, -3.0), claim="poorer")]
    pool = ds.unlabeled_ids()
    assert np.array_equal(ws.squared_distances(rows, pool, ds),
                          ws.squared_distances(raw, pool, ds))
    assert map_to_pool(rows, pool, ds).tolist() == [2, 0]


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


# Two numeric columns with values, one with none, and a symbolic column.
FUZZ_DS = load_csv(io.StringIO("Kloc,Team,Empty,lang,Cost-,Speed+\n"
                               "1,5,?,py,1,2\n10,3,?,c,2,3\n4,?,?,?,3,1\n"),
                   name="fuzz")
FUZZ_CELLS = st.one_of(
    st.sampled_from([c.name for c in FUZZ_DS.x_cols]
                    + ["?", "nan", "inf", "-inf", "1e400", "-1e400", "|", "",
                       "py", "zz", "**3**", "`4`", "---", ":-:"]),
    st.integers(-100, 100).map(str),
    st.integers(-100, 100).map(str),
    st.floats().map(repr))
# Table rows of the 4 x cells, or 4 plus a tag, come up most often, so that
# about one text in ten parses.
FUZZ_ROWS = st.one_of(*(st.lists(FUZZ_CELLS, min_size=lo, max_size=hi)
                        for lo, hi in ((0, 6), (4, 5), (4, 4)))).map(
    lambda cells: "| " + " | ".join(cells) + " |")
FUZZ_SECTIONS = st.tuples(
    st.sampled_from(["Better Examples:", "Poorer Examples:", "two worse ones",
                     "BETTER", "here you go"]),
    st.lists(FUZZ_ROWS, min_size=1, max_size=4)).map(lambda t: "\n".join([t[0], *t[1]]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.one_of(FUZZ_SECTIONS, FUZZ_SECTIONS,
                                               st.text(max_size=20)),
                                     max_size=6).map("\n".join)))
def test_parse_returns_rows_of_both_claims_or_raises_synthesis_error(text):
    """Whatever text it is handed, parse_response returns 2-4 rows with at
    least one per claim, each with one cell per x column and every numeric
    cell finite and inside its column's range (0 to 0 where the column has
    no values); or it raises SynthesisError. No other exception escapes."""
    try:
        rows = parse_response(text, FUZZ_DS)
    except SynthesisError:
        return
    assert 2 <= len(rows) <= 4
    assert {r.claim for r in rows} == {ws.BETTER, ws.POORER}
    for r in rows:
        assert len(r.cells) == len(FUZZ_DS.x_cols)
        for col, v in zip(FUZZ_DS.x_cols, r.cells):
            if col.kind != NUMERIC or v is None:
                continue
            assert math.isfinite(v)
            stats = FUZZ_DS.col_stats(col)
            assert stats.lo <= v <= stats.hi


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
        probe = Row(id=-1, x=tuple(s.cells))
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
    a = warm(kanban, 8, MockSynthesizer(), 5)
    b = warm(other, 8, MockSynthesizer(), 5)
    assert kanban.label_order.tolist() == other.label_order.tolist()
    assert a is b is False


def test_warm_start_label_budget_is_bounded(kanban):
    for seed in range(8):
        work = kanban.fresh()
        fallback = warm(work, 8, MockSynthesizer(), seed)
        assert 4 <= work.evaluations <= 8
        assert not fallback


@pytest.mark.parametrize("budget", [4, 5, 6, 7])
def test_warm_start_stops_labeling_at_the_budget(kanban, budget):
    """Mapped hits are labeled in hit order until the budget is spent, so a
    smaller budget labels a prefix of what a larger one labels."""
    for seed in range(8):
        full, capped = kanban.fresh(), kanban.fresh()
        warm(full, 8, MockSynthesizer(), seed)
        warm(capped, budget, MockSynthesizer(), seed)
        assert capped.evaluations == min(budget, full.evaluations)
        assert capped.label_order.tolist() == \
            full.label_order[:capped.evaluations].tolist()


def test_warm_start_budget_must_cover_the_cold_start(toy):
    with pytest.raises(ValueError, match="below the 4 labels spent"):
        warm(toy, 3, MockSynthesizer(), 0)


def test_warm_start_can_land_inside_a_sweet_spot(kanban):
    warm(kanban, 8, MockSynthesizer(), 36)
    cold, added = kanban.label_order[:4], kanban.label_order[4:]
    assert added.size, "the synthetic rows mapped somewhere new"
    assert reveal(cold, kanban).min() > 0.4
    assert reveal(added, kanban).min() < 0.2


def test_warm_start_requires_a_pair_of_seeds(toy):
    cold_start(toy, 1, random.Random(0))
    with pytest.raises(ValueError, match="at least 2 labeled rows"):
        warm_start(toy, 8, MockSynthesizer(), log=lambda event: None)
    assert toy.evaluations == 1


def test_warm_start_prompts_with_the_rows_the_run_labeled(toy):
    """The synthesizer sees exactly the run's labeled rows, ranked by
    (chebyshev, id), and the rows it maps to are labeled after them."""
    for i in (8, 0, 5, 3):
        toy.label(i)
    seen = []
    mock = MockSynthesizer()

    def spy(bundle, e0, ds):
        seen.append(e0)
        return mock(bundle, e0, ds)

    assert not warm_start(toy, 8, spy, log=lambda event: None)
    ranked = sorted((toy.rows[i] for i in (0, 3, 5, 8)),
                    key=lambda r: (chebyshev(r, toy), r.id))
    assert seen == [ranked]
    assert toy.label_order[:4].tolist() == [8, 0, 5, 3]
    assert toy.evaluations > 4


def test_warm_start_falls_back_after_three_failures(toy, sleeps):
    calls = []

    def broken(bundle, e0, ds):
        calls.append(1)
        raise SynthesisError("no usable rows")

    events = []
    fallback = warm(toy, 8, broken, 0, log=events.append)
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]
    assert fallback
    assert toy.evaluations == 4
    kinds = [e["event"] for e in events]
    assert kinds == ["request", "error"] * 3 + ["fallback"]
    assert "messages" in events[0]


def test_warm_start_logs_request_and_response(toy):
    events = []
    warm(toy, 8, MockSynthesizer(), 1, log=events.append)
    kinds = [e["event"] for e in events]
    assert kinds[:2] == ["request", "response"]
    roles = [m["role"] for m in events[0]["messages"]]
    assert roles == ["system", "user"]
    assert "Better Examples:" in events[1]["text"]


def test_warm_start_waits_before_each_retry_only(toy, sleeps):
    """The first attempt goes out at once; each retry first sleeps its
    RETRY_WAITS entry, and a success stops both the retries and the waits."""
    replies = iter([SynthesisError("busy"), None])
    mock = MockSynthesizer()
    waits_at_call = []

    def flaky(bundle, e0, ds):
        waits_at_call.append(list(sleeps))
        err = next(replies)
        if err is not None:
            raise err
        return mock(bundle, e0, ds)

    fallback = warm(toy, 8, flaky, 0)
    assert not fallback
    assert waits_at_call == [[], [ws.RETRY_WAITS[0]]]
    assert sleeps == [ws.RETRY_WAITS[0]]
    assert ws.RETRY_WAITS == (1.0, 2.0)


# -- remote client ------------------------------------------------------------

def test_remote_synthesizer_requires_a_key(monkeypatch):
    monkeypatch.delenv("MOOTOPT_API_KEY", raising=False)
    with pytest.raises(ValueError):
        RemoteSynthesizer("https://api.example/v1/chat", "model-x")


def test_remote_synthesizer_posts_the_bundle(monkeypatch, toy, chat_server):
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    ranked = by_cheb(toy)[:4]
    reply = render_synthetic(mock_synthesize(ranked, toy), toy)
    server = chat_server(lambda handler: send(handler, completion(reply)))
    timeouts = []
    urlopen = urllib.request.urlopen

    def spy(request, timeout):
        timeouts.append(timeout)
        return urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", spy)
    synth = RemoteSynthesizer(server.url, "model-x")
    fallback = warm(toy.fresh(), 8, synth, 9)
    assert not fallback
    assert timeouts == [60.0]
    [(headers, payload)] = server.seen
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"
    assert payload["model"] == "model-x"
    roles = [m["role"] for m in payload["messages"]]
    assert roles == ["system", "user"]


def test_remote_warm_start_needs_no_requests_package(monkeypatch, toy,
                                                     chat_server):
    """The client is the standard library's: with `requests` unimportable,
    a remote warm start labels the rows its reply maps to, as the same
    reply handed over directly does."""
    monkeypatch.setitem(sys.modules, "requests", None)
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    reply = render_synthetic([SyntheticRow(toy.rows[0].x, "better"),
                              SyntheticRow(toy.rows[1].x, "poorer")], toy)
    server = chat_server(lambda handler: send(handler, completion(reply)))
    direct = toy.fresh()
    warm(direct, 8, lambda bundle, e0, ds: reply, 9)
    fallback = warm(toy, 8, RemoteSynthesizer(server.url, "model-x"), 9)
    assert not fallback and len(server.seen) == 1
    assert toy.evaluations > 4
    assert toy.label_order.tolist() == direct.label_order.tolist()


def refused_url() -> str:
    """A loopback URL whose port was bound and then closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat/completions"


def reply_late(handler):
    # Well past the test's 0.2 s timeout. Not time.sleep, which `sleeps` records.
    threading.Event().wait(1.0)
    send(handler, completion("late"))


@pytest.mark.parametrize("respond", [
    lambda handler: send(handler, b'{"error": "overloaded"}', status=503),
    lambda handler: send(handler, b"<html>overloaded</html>"),
    None,
    reply_late,
    lambda handler: send(handler, b'{"choices"', length=100),
], ids=["http-error", "non-json-body", "connection-refused", "timeout",
        "cut-short"])
def test_remote_failures_count_as_failed_attempts(respond, monkeypatch, toy,
                                                  sleeps, chat_server):
    """An error status, a body that is not JSON, a refused connection, a
    timeout and a reply cut short each cost one attempt, reported as one
    SynthesisError naming the endpoint; after three the warm start falls
    back, having waited before each retry."""
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    if respond is reply_late:
        monkeypatch.setattr(ws, "REQUEST_TIMEOUT", 0.2)
    server = None if respond is None else chat_server(respond)
    url = refused_url() if server is None else server.url
    events = []
    fallback = warm(toy, 8, RemoteSynthesizer(url, "model-x"), 9, log=events.append)
    if server is not None:
        assert len(server.seen) == 3
    assert sleeps == list(ws.RETRY_WAITS)
    assert fallback and toy.evaluations == 4
    assert [e["event"] for e in events] == ["request", "error"] * 3 + ["fallback"]
    [error] = {e["error"] for e in events if e["event"] == "error"}
    assert error.startswith(f"request to {url} failed: ")


@pytest.mark.parametrize("status", [302, 307])
def test_remote_redirects_cost_an_attempt_and_never_carry_the_key(
        status, monkeypatch, toy, sleeps, chat_server):
    """A 302 is followed as a GET without the body, a 307 not at all; either
    way the attempt fails, and the redirect target never sees the key."""
    monkeypatch.setenv("MOOTOPT_API_KEY", "sk-test")
    target = chat_server(lambda handler: send(handler, completion("moved")))

    def redirect(handler):
        handler.send_response(status)
        handler.send_header("Location", target.url)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    server = chat_server(redirect)
    fallback = warm(toy, 8, RemoteSynthesizer(server.url, "model-x"), 9)
    assert fallback and len(server.seen) == 3
    assert all(h["Authorization"] == "Bearer sk-test" for h, _ in server.seen)
    assert len(target.seen) == (3 if status == 302 else 0)
    assert not any("Authorization" in h for h, _ in target.seen)


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
    """Only the chat-completions shape, choices[0].message.content, is read;
    every other shape raises SynthesisError, which costs one attempt."""
    if payload == {"choices": [{"message": {"content": want}}]}:
        assert extract_completion(payload) == want
    else:
        with pytest.raises(SynthesisError):
            extract_completion(payload)


def test_extract_completion_rejects_junk():
    with pytest.raises(SynthesisError):
        extract_completion({"usage": {"tokens": 3}})
