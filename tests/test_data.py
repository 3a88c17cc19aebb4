"""Header grammar, CSV parsing, column stats, cell encoding, distance."""

import io
import math
import random
import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DATA, label_ids, shipped
from mootopt import data as d
from mootopt.data import (NumStats, ParseError, classify_dims, format_cell,
                          load_csv, normalize, parse_header)
from mootopt.objective import reveal
from oracles import x_distance


# -- header grammar ----------------------------------------------------------

def test_parse_header_numeric_independent_and_goal():
    kloc, effort = parse_header(["Kloc", "effort-"])
    assert (kloc.kind, kloc.role, kloc.direction) == (d.NUMERIC, d.INDEPENDENT, None)
    assert (effort.kind, effort.role, effort.direction) == (d.NUMERIC, d.GOAL, d.MINIMIZE)


def test_parse_header_goal_suffixes_win_over_case():
    # A goal is numeric by definition, whatever the leading letter says.
    specs = parse_header(["Kloc", "mpg+", "Cost-"])
    assert specs[1].role == d.GOAL and specs[1].direction == d.MAXIMIZE
    assert specs[1].kind == d.NUMERIC
    assert specs[2].direction == d.MINIMIZE


def test_parse_header_trailing_x_ignored():
    _, cpu, notes, _ = parse_header(["Kloc", "CpuX", "notesX", "Speed+"])
    assert cpu.role == d.IGNORED and cpu.kind == d.NUMERIC
    assert notes.role == d.IGNORED and notes.kind == d.SYMBOLIC


def test_parse_header_lowercase_is_symbolic():
    kind = parse_header(["kind", "Speed+"])[0]
    assert kind.kind == d.SYMBOLIC and kind.role == d.INDEPENDENT


@pytest.mark.parametrize("names", [
    [],
    ["Kloc", "Kloc", "effort-"],      # duplicate
    ["Kloc", " ", "effort-"],         # blank
    ["Kloc", "Ram"],                  # zero goals
    ["effort-", "Speed+"],            # zero independents
])
def test_parse_header_rejects_bad_headers(names):
    with pytest.raises(ParseError):
        parse_header(names)


@pytest.mark.parametrize("n,stratum", [
    (1, "low"), (5, "low"), (6, "medium"), (11, "medium"),
    (12, "high"), (22, "high"),
])
def test_classify_dims_boundaries(n, stratum):
    assert classify_dims(n) == stratum


# -- loading -----------------------------------------------------------------

def test_load_toy_shapes(toy):
    assert len(toy.rows) == 12
    assert [c.name for c in toy.x_cols] == ["Cores", "Ram", "kind"]
    assert [c.name for c in toy.y_cols] == ["Price-", "Speed+"]
    assert toy.dims == "low"
    assert toy.x_cols[2].kind == d.SYMBOLIC


def test_shipped_dims_strata(auto93, nasa93dem):
    assert (len(auto93.x_cols), auto93.dims) == (5, "low")
    assert (len(nasa93dem.x_cols), nasa93dem.dims) == (22, "high")


def test_load_from_stream_gets_default_name():
    ds = load_csv(io.StringIO("Kloc,effort-\n1,2\n"))
    assert ds.name == "<stream>"
    assert len(ds.rows) == 1


def test_missing_cells_parse_to_none(make_ds):
    ds = make_ds("""
        Kloc,kind,effort-
        1,a,10
        ?,b,20
        3,?,?
    """)
    assert ds.rows[1].x[0] is None
    assert ds.rows[2].x[1] is None
    assert np.isnan(ds._goals[2, 0])


def test_numeric_stats_match_statistics_module(make_ds):
    ds = make_ds("""
        Kloc,effort-
        1,10
        2,20
        ?,30
        4,40
    """)
    st_ = ds.col_stats(ds.x_cols[0])
    vals = [1.0, 2.0, 4.0]  # the '?' does not count
    assert st_.lo == 1.0 and st_.hi == 4.0
    assert st_.median == statistics.median(vals)
    assert st_.sd == pytest.approx(statistics.pstdev(vals))


def test_constant_numeric_column_has_zero_sd(make_ds):
    # numpy's mean of three 0.1s is 0.1 plus an ulp; the sd stays exactly 0
    ds = make_ds("""
        Kloc,effort-
        0.1,10
        0.1,20
        0.1,30
    """)
    st_ = ds.col_stats(ds.x_cols[0])
    assert (st_.lo, st_.hi, st_.median, st_.sd) == (0.1, 0.1, 0.1, 0.0)


def test_symbolic_mode_breaks_ties_lexicographically(make_ds):
    ds = make_ds("""
        kind,effort-
        b,1
        a,2
        a,3
        b,4
    """)
    st_ = ds.col_stats(ds.x_cols[0])
    assert st_ == {"a": 2, "b": 2}
    assert d.mode(st_) == "a"


@pytest.mark.parametrize("text", [
    "",                                  # empty stream
    "Kloc,effort-\n1\n",                 # ragged row
    "Kloc,effort-\nabc,2\n",             # non-numeric cell in numeric column
    "Kloc,effort-\n1,4\ninf,5\n3,9\n",     # non-finite cell
    "Kloc,effort-\n",                     # header only
    "Kloc,effort-\n1e200,4\n-1e200,5\n",  # sd overflows a float
])
def test_load_rejects_malformed_tables(text):
    with pytest.raises(ParseError):
        load_csv(io.StringIO(text), name="bad")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["Kloc", "effort-"])
def test_load_names_the_row_and_column_of_a_non_finite_cell(cell, column):
    rows = [["1", "4"], ["2", "5"], ["3", "9"]]
    rows[1][["Kloc", "effort-"].index(column)] = cell
    text = "Kloc,effort-\n" + "".join(",".join(r) + "\n" for r in rows)
    with pytest.raises(ParseError, match=rf"^row 3: cell '{cell}' in numeric "
                                         rf"column '{column}' is not a finite"):
        load_csv(io.StringIO(text), name="bad")


def test_load_refuses_a_header_without_rows():
    for text in ("Kloc,effort-\n", "Kloc,effort-\n\n\n"):
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(io.StringIO(text), name="bad")


def test_load_strips_a_utf8_byte_order_mark(tmp_path):
    """Excel's "CSV UTF-8" export starts the file with the bytes EF BB BF;
    they must not become part of the first column's name, nor turn that
    numeric column symbolic, whether the file is read from a path or from
    a text stream, and whether or not the first header cell is quoted."""
    path = tmp_path / "bom.csv"
    for header in ("Kloc,effort-", '"Kloc",effort-'):
        text = "\ufeff" + header + "\n1,2\n3,4\n"
        path.write_bytes(text.encode("utf-8"))
        for source in (path, io.StringIO(text)):
            col = load_csv(source).x_cols[0]
            assert (col.name, col.kind) == ("Kloc", d.NUMERIC), (header, source)


def test_load_names_the_row_of_a_csv_reader_error():
    with pytest.raises(ParseError, match="^row 1: new-line character seen"):
        load_csv(io.StringIO("Kloc,effort-\r1,2\r3,4\r"))


LATIN1 = b"name,Kloc,effort-\ncaf\xe9,1,2\nbar,3,4\n"  # as a latin-1 export writes it


@pytest.mark.parametrize("text", [LATIN1, LATIN1.replace(b"name", b"n\xe4me")])
def test_load_refuses_a_table_that_is_not_utf8(text, tmp_path):
    """A bad byte in the header or in the body is a ParseError, not a
    UnicodeDecodeError, so the command line refuses it in one line."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="^not UTF-8 text: invalid continuation byte"):
        load_csv(path)


CSV_CHARS = st.sampled_from(list('Kkx,-+X?ab019.e" \t\r\n')
                            + ["inf", "nan", "1e200", "1e308", "\x00"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(),
                 st.lists(CSV_CHARS).map("".join),
                 st.lists(CSV_CHARS).map(lambda cs: "Kloc,s,effort-\n" + "".join(cs))))
def test_load_csv_returns_a_dataset_or_raises_parse_error(text):
    """Whatever text it is handed, load_csv loads a table or raises
    ParseError; no other exception escapes."""
    try:
        ds = load_csv(io.StringIO(text), name="fuzz")
    except ParseError:
        return
    assert isinstance(ds, d.Dataset) and ds.rows


NUMBERS = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(-1e6, 1e6).map(repr),
                    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
                    st.sampled_from(["?", "0", "-0.0", "1_0"]))
SYMBOLS = st.sampled_from(["a", "b", "c", "?", "a b", "1", "x?"])
NOT_FINITE = st.sampled_from(["inf", "-inf", "nan", "NaN", "abc", "", "1..2", "?0"])


@st.composite
def moot_csv(draw, broken=None):
    """MOOT CSV text: numeric, symbolic, ignored and goal columns of 1-12
    rows, with missing cells, padded and quoted cells, maybe a BOM, CRLF
    line ends and blank trailing lines. A broken table also holds
    non-finite or non-numeric numeric cells and ragged rows.

    One table in four has 100-300 rows instead, past the 128 values numpy
    sums in one pairwise block: each column repeats a few drawn cells, so
    some columns hold one value and some no missing cell."""
    roles = draw(st.lists(st.sampled_from(["Num", "sym", "NumX", "symX", "+", "-"]),
                          max_size=5))
    roles = draw(st.permutations(roles + [draw(st.sampled_from(["Num", "sym"])),
                                          draw(st.sampled_from(["+", "-"]))]))
    names = [f"g{i}{r}" if r in "+-" else f"{r[0]}{i}{r[3:]}"
             for i, r in enumerate(roles)]
    broken = draw(st.booleans()) if broken is None else broken

    def cell(role):
        if role.startswith("sym"):
            text = draw(SYMBOLS)
        elif broken and draw(st.integers(0, 7)) == 0:
            text = draw(NOT_FINITE)
        elif draw(st.integers(0, 200)) == 0:
            text = draw(st.sampled_from(["1.7e308", "-1.7e308"]))  # sums overflow
        else:
            text = draw(NUMBERS)
        text = " " * draw(st.integers(0, 2)) + text + " " * draw(st.integers(0, 1))
        return f'"{text}"' if draw(st.integers(0, 4)) == 0 else text

    if draw(st.integers(0, 3)):
        records = [[cell(r) for r in roles] for _ in range(draw(st.integers(1, 12)))]
    else:
        pools = [[cell(r) for _ in range(draw(st.integers(1, 12)))] for r in roles]
        rng = draw(st.randoms(use_true_random=False))
        records = [[rng.choice(pool) for pool in pools]
                   for _ in range(rng.randint(100, 300))]
    if broken and draw(st.integers(0, 5)) == 0:
        records[draw(st.integers(0, len(records) - 1))].pop()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return ("\ufeff" * draw(st.booleans())
            + "".join(",".join(r) + end for r in [names] + records)
            + end * draw(st.integers(0, 2)))


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(max_examples=400, deadline=None)
@given(moot_csv())
@example("\ufeff\"Kloc\", kind ,effort-\r\n 2 ,\"a\",1\r\n?,b,4\r\n\r\n")
@example("Kloc,effort-\n1.7e308,1\n1.7e308,2\n")  # the median's sum overflows
@example("Kloc,effort-\n1,inf\nabc,2\n")  # the first bad column is named
def test_load_csv_equals_the_cell_by_cell_oracle(text):
    """The column passes load the rows, stats and errors the cell-by-cell
    loader does: the same cells with the same types, every median and sd
    to the bit, and the same ParseError text."""
    try:
        columns, rows, goals, stats = oracles.load_rows(io.StringIO(text))
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_csv(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    ds = load_csv(io.StringIO(text))
    assert ds.columns == columns
    assert all(type(row) is d.Row for row in ds.rows)
    assert repr(ds.rows) == repr(rows)  # repr tells -0.0 and "1" from 0.0 and 1.0
    want = np.array(goals, dtype=float).reshape(len(rows), len(ds.y_cols))  # None -> NaN
    assert ds._goals.shape == want.shape and ds._goals.tobytes() == want.tobytes()
    for got, want in zip(ds.stats, stats, strict=True):
        if isinstance(want, NumStats):
            assert (got.lo, got.hi) == (want.lo, want.hi)
            assert (bits(got.median), bits(got.sd)) == (bits(want.median), bits(want.sd))
        else:
            assert got == want


# -- normalization -----------------------------------------------------------

def test_norm_midpoint_and_clamping(make_ds):
    ds = make_ds("""
        Kloc,effort-
        0,1
        10,2
    """)
    st_ = ds.col_stats(ds.x_cols[0])
    assert normalize([5.0, -3.0, 99.0], st_).tolist() == [0.5, 0.0, 1.0]


def test_norm_degenerate_column_maps_to_half(make_ds):
    ds = make_ds("""
        Kloc,effort-
        7,1
        7,2
    """)
    st_ = ds.col_stats(ds.x_cols[0])
    assert normalize([7.0, 123.0], st_).tolist() == [0.5, 0.5]


def test_norm_keeps_nan_as_nan():
    # A missing cell must stay missing, in a live and in a degenerate
    # column alike; fmax/fmin would turn it into 0 or 1.
    for st_ in (NumStats(lo=0.0, hi=10.0), NumStats(lo=7.0, hi=7.0)):
        z = normalize([np.nan, 5.0, None], st_)
        assert np.isnan(z[0]) and np.isnan(z[2]) and not np.isnan(z[1])


@given(st.floats(-50, 150), st.floats(-50, 150))
def test_norm_is_monotone_and_bounded(v1, v2):
    ds = load_csv(io.StringIO("Kloc,effort-\n0,1\n100,2\n"), name="mono")
    z_lo, z_hi = normalize(sorted((v1, v2)), ds.col_stats(ds.x_cols[0]))
    assert 0.0 <= z_lo <= z_hi <= 1.0


# -- x_distance --------------------------------------------------------------

def test_x_distance_hand_case(make_ds):
    # Normalized gaps 0.3 and 0.4, so the distance is sqrt(0.09 + 0.16) = 0.5.
    ds = make_ds("""
        A,B,score-
        0,0,1
        10,10,2
        3,4,3
    """)
    r0, _, r2 = ds.rows
    assert x_distance(r2, r0, ds) == pytest.approx(0.5)


def test_x_distance_symbolic_contributions(make_ds):
    ds = make_ds("""
        kind,score-
        a,1
        a,2
        b,3
    """)
    assert x_distance(ds.rows[0], ds.rows[1], ds) == 0.0
    assert x_distance(ds.rows[0], ds.rows[2], ds) == 1.0


def test_x_distance_missing_cell_costs_full_gap(make_ds):
    ds = make_ds("""
        Kloc,score-
        ?,1
        5,2
        ?,3
    """)
    assert x_distance(ds.rows[0], ds.rows[1], ds) == 1.0
    # Pessimism applies even when both sides are missing.
    assert x_distance(ds.rows[0], ds.rows[2], ds) == 1.0


def test_x_distance_is_a_metric_on_complete_rows(auto93):
    import random
    rng = random.Random(3)
    rows = rng.sample(auto93.rows, 12)
    bound = math.sqrt(len(auto93.x_cols))
    for a in rows:
        assert x_distance(a, a, auto93) == 0.0
        for b in rows:
            dab = x_distance(a, b, auto93)
            assert 0.0 <= dab <= bound
            assert dab == x_distance(b, a, auto93)
            for c in rows[:6]:
                assert dab <= x_distance(a, c, auto93) + x_distance(c, b, auto93) + 1e-12


def test_x_views_cache_shapes(toy):
    views = toy.x_views()
    assert views["num_pos"] == [0, 1]
    assert views["sym_pos"] == [2]
    assert views["alphabets"][0] == sorted(views["alphabets"][0])
    assert views["X_num"].shape == (12, 2)
    assert views["X_sym"].shape == (12, 1)
    assert views["onehot"].shape == (12, len(views["alphabets"][0]))
    assert set(views) == {"num_pos", "sym_pos", "alphabets", "X_num", "X_sym", "onehot"}
    assert toy.x_views() is views  # built once


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.csv")))
def test_x_views_match_the_cell_by_cell_encoding(name):
    """The encoder's views equal norm() and alphabet.index() applied cell
    by cell, bit for bit, in the memory order the surrogates' sums rely on.
    The flat symbol space numbers every column's alphabet in turn."""
    ds = shipped(name)
    views = ds.x_views()
    sizes = [len(a) for a in views["alphabets"]]
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    want_num = np.full(views["X_num"].shape, np.nan)
    want_sym = np.full(views["X_sym"].shape, -1)
    want_onehot = np.zeros((len(ds.rows), sum(sizes)))
    for i, row in enumerate(ds.rows):
        for j, p in enumerate(views["num_pos"]):
            if row.x[p] is not None:
                want_num[i, j] = oracles.norm(ds.x_cols[p], float(row.x[p]), ds)
        for j, p in enumerate(views["sym_pos"]):
            if row.x[p] is not None:
                want_sym[i, j] = views["alphabets"][j].index(row.x[p])
                want_onehot[i, starts[j] + want_sym[i, j]] = 1.0
    assert views["X_num"].tobytes() == want_num.tobytes()
    assert np.array_equal(views["X_sym"], want_sym)
    assert views["onehot"].tobytes() == want_onehot.tobytes()
    assert views["X_num"].flags.c_contiguous


def assert_encodings_match_the_row_wise_builds(ds, goals):
    views, want = ds.x_views(), oracles.x_views_rows(ds)
    for key in ("X_num", "X_sym", "onehot"):
        assert views[key].dtype == want[key].dtype, key
        assert views[key].shape == want[key].shape, key
        assert views[key].tobytes() == want[key].tobytes(), key
    work = ds.fresh()
    scores = reveal(label_ids(work), work)
    assert scores.tobytes() == oracles.score_vector_rows(ds, goals).tobytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.csv")))
def test_column_wise_encodings_equal_the_row_wise_builds(name):
    assert_encodings_match_the_row_wise_builds(
        shipped(name), oracles.goal_rows(DATA / f"{name}.csv"))


@settings(max_examples=150, deadline=None)
@given(moot_csv(broken=False))
def test_column_wise_encodings_of_generated_tables_equal_the_row_wise_builds(text):
    """Generated tables hold missing cells, one-value columns and symbols
    that look like numbers."""
    try:
        ds = load_csv(io.StringIO(text))
    except ParseError:
        return  # a column too large to summarize
    assert_encodings_match_the_row_wise_builds(ds, oracles.load_rows(io.StringIO(text))[2])


@pytest.mark.parametrize("text", [
    "Kloc,Ram,effort-\n1,2,3\n4,?,6\n",  # no symbolic x column
    "kind,os,effort-\na,x,3\n?,y,6\n",   # no numeric x column
    "Kloc,kind,effort-\n1,a,3\n?,b,6\n",
])
def test_encode_cells_keeps_its_shapes(text):
    """Zero cells, and tables without a numeric or a symbolic x column,
    still give a (cells, numeric columns) float block and a (cells,
    symbolic columns) code block."""
    ds = load_csv(io.StringIO(text))
    views = ds.x_views()
    n_num, n_sym = len(views["num_pos"]), len(views["sym_pos"])
    for cells in ([], [row.x for row in ds.rows]):
        num, codes = d.encode_cells(cells, ds)
        want_num, want_codes = oracles.encode_rows(cells, ds, views)
        assert (num.shape, codes.shape) == ((len(cells), n_num), (len(cells), n_sym))
        assert (num.dtype, codes.dtype) == (np.float64, np.int64)
        assert num.tobytes() == want_num.tobytes()
        assert codes.tobytes() == want_codes.tobytes()


def test_encode_codes_unseen_and_missing_symbols_as_minus_one(toy):
    seen = toy.x_views()["alphabets"][0][0]
    num, codes = d.encode_cells([(1.0, None, seen), (None, 2.0, "unseen"),
                                 (3.0, 4.0, None)], toy)
    assert codes[:, 0].tolist() == [0, -1, -1]
    assert np.isnan(num[0, 1]) and np.isnan(num[1, 0])
    assert num.shape == (3, 2) and codes.shape == (3, 1)


# -- loading and cell formatting -------------------------------------------------

def test_format_cell_integers_and_floats():
    assert format_cell(3.0) == "3"
    assert format_cell(2.5) == repr(2.5)
    assert format_cell("a") == "a"
    assert format_cell(None) == "?"


def test_load_drops_ignored_columns_and_reads_missing_cells(make_ds):
    ds = make_ds("""
        Kloc,noteX,kind,effort-
        1.5,keep,a,10
        ?,this,b,?
        3,order,a,30
    """, name="rt")
    assert [c.name for c in ds.columns] == ["Kloc", "noteX", "kind", "effort-"]
    assert [r.x for r in ds.rows] == [(1.5, "a"), (None, "b"), (3.0, "a")]
    assert np.array_equal(ds._goals, [[10.0], [np.nan], [30.0]], equal_nan=True)
    assert ds.col_stats(ds.columns[1]) is None


# -- label accounting --------------------------------------------------------

def test_sample_ids_draws_what_the_row_list_draw_did(auto93):
    """Sampling ids picks the same rows, in the same order, from the same
    rng state as rng.sample over the id-sorted row list."""
    pool = auto93.unlabeled_ids()[10:50]
    rows = [auto93.rows[i] for i in pool]
    for seed in range(5):
        old = random.Random(seed).sample(rows, 8)
        new = d.sample_ids(random.Random(seed), pool, 8)
        assert new.tolist() == [r.id for r in old]


def test_label_accounting(toy):
    assert toy.evaluations == 0
    toy.label(5)
    assert toy.evaluations == 1
    assert toy.labeled_ids().tolist() == [5]
    assert len(toy.unlabeled_ids()) == 11
    with pytest.raises(ValueError):
        toy.label(5)


def test_label_refuses_ids_outside_the_table(toy):
    for bad in (-1, 12):
        with pytest.raises(IndexError, match=f"toy has no row {bad}"):
            toy.label(bad)
    assert toy.evaluations == 0 and not toy.is_labeled(11)


def test_label_order_reflects_call_order(toy):
    picks = [7, 2, 9]
    for i in picks:
        toy.label(i)
    assert toy.label_order.tolist() == picks
    toy.label_all()  # the rest, in id order
    assert toy.label_order.tolist() == picks + [
        i for i in range(12) if i not in picks]
    assert toy.unlabeled_ids().size == 0


def test_fresh_copies_do_not_share_labels(toy):
    toy.label(0)
    other = toy.fresh()
    sibling = toy.fresh()
    assert other.evaluations == 0
    assert toy.evaluations == 1
    other.label(0)  # same id, private label state
    assert other.evaluations == 1
    other.label(5)
    assert other.rows is toy.rows  # rows are shared, never copied
    for ds in (toy, sibling):
        assert not ds.is_labeled(5)
        with pytest.raises(ValueError):
            reveal(5, ds)
    assert toy.labeled_ids().tolist() == [0]
    assert sibling.evaluations == 0 and sibling.labeled_ids().size == 0
    assert other.label_order.tolist() == [0, 5]


@given(st.lists(st.integers(0, 11), unique=True))
def test_label_views_agree_with_the_mask(order):
    ds = load_csv(DATA / "toy.csv")
    for i in order:
        ds.label(i)
    mask = ds.is_labeled(np.arange(len(ds.rows)))
    assert ds.labeled_ids().tolist() == np.flatnonzero(mask).tolist()
    assert [r.id for r in ds.labeled_rows()] == np.flatnonzero(mask).tolist()
    assert ds.unlabeled_ids().tolist() == np.flatnonzero(~mask).tolist()
    assert [r.id for r in ds.unlabeled_rows()] == np.flatnonzero(~mask).tolist()
    assert ds.label_order.tolist() == order
    assert ds.evaluations == len(order) == int(mask.sum())
    for i in order:
        with pytest.raises(ValueError):
            ds.label(i)
