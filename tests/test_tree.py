import csv
import io
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (comb_tree, explicit_cycle_length, rows_plus_column_tree,
                      spiral_tree)
from gridcycle import tree as tree_module
from gridcycle.construction import _edge_ids, build_tree
from gridcycle.errors import (EmptyCycleError, GridCycleError,
                              MalformedFileError, NoChordsError,
                              NotAChordError, NotASpanningTreeError,
                              UnknownEdgeError)
from gridcycle.expanded import ExpandedGrid, XSpanningTree, xperimeter
from gridcycle.matroid import EchelonMatrix
from gridcycle.grid import make_grid
from gridcycle.search import enumerate_spanning_trees, random_spanning_tree
from gridcycle.tree import AncestorTables, SpanningTree, cycle_box, record_ints


def t3_rows_plus_central_column():
    return rows_plus_column_tree(make_grid(3), 2)


def test_tree_from_edges_path_tree():
    g = make_grid(2)
    ids = [g.edge_id((1, 1), (2, 1)), g.edge_id((2, 1), (2, 2)),
           g.edge_id((1, 2), (2, 2))]
    t = SpanningTree.from_edges(g, ids, (2, 1))
    assert t.depth((1, 2)) == 2
    assert t.depth((2, 1)) == 0
    for given in (set(ids), tuple(reversed(ids)), np.array(ids),
                  np.array(ids, dtype=np.int32), iter(ids)):
        same = SpanningTree.from_edges(g, given, (2, 1))
        assert np.array_equal(same.tree_edge_mask, t.tree_edge_mask)
        assert np.array_equal(same.parent_idx, t.parent_idx)
        assert np.array_equal(same.depth_arr, t.depth_arr)


def test_tree_from_edges_cardinality_error():
    g = make_grid(2)
    with pytest.raises(NotASpanningTreeError) as err:
        SpanningTree.from_edges(g, [0, 1, 2, 3], (2, 1))
    assert err.value.cause == "cardinality"
    # Duplicates are reported before out-of-range ids, ids past int64
    # among them.
    for ids in ([0, 0, 1], [0, 0, 99], [-1, 2, 2], np.array([3, 99, 3]),
                [5, 5, 2 ** 70], [2 ** 70, 1, 2 ** 70]):
        with pytest.raises(NotASpanningTreeError) as err:
            SpanningTree.from_edges(g, ids, (2, 1))
        assert err.value.cause == "cardinality"
        assert str(err.value).endswith("duplicate edge ids")


def test_tree_from_edges_cyclic_and_disconnected():
    g = make_grid(3)
    square = [g.edge_id((1, 1), (2, 1)), g.edge_id((2, 1), (2, 2)),
              g.edge_id((2, 2), (1, 2)), g.edge_id((1, 2), (1, 1))]
    filler = [g.edge_id((3, 1), (3, 2)), g.edge_id((3, 2), (3, 3)),
              g.edge_id((2, 3), (3, 3)), g.edge_id((1, 3), (2, 3))]
    with pytest.raises(NotASpanningTreeError) as err:
        SpanningTree.from_edges(g, square + filler, (1, 1))
    assert err.value.cause == "cyclic"

    bottom_path = [g.edge_id((1, 1), (2, 1)), g.edge_id((2, 1), (3, 1))]
    far_cycle = [g.edge_id((1, 2), (2, 2)), g.edge_id((2, 2), (2, 3)),
                 g.edge_id((2, 3), (1, 3)), g.edge_id((1, 3), (1, 2)),
                 g.edge_id((3, 2), (3, 3)), g.edge_id((3, 3), (2, 3))]
    with pytest.raises(NotASpanningTreeError) as err:
        SpanningTree.from_edges(g, bottom_path + far_cycle, (1, 1))
    assert err.value.cause == "disconnected"


def test_tree_from_edges_t3():
    t = t3_rows_plus_central_column()
    assert t.total_length().L_total == 16


def test_tree_rejects_unknown_edge():
    g = make_grid(2)
    with pytest.raises(UnknownEdgeError):
        SpanningTree.from_edges(g, [0, 1, 99], (2, 1))
    # The message names the smallest bad id; range beats cardinality.
    for ids, bad in (([0, 1, -1], -1), ([99, -5, 4], -5), ([4, 7], 4),
                     ({2, 8, 5}, 5), (np.array([1, 4]), 4),
                     ([0, 1, 2 ** 70], 2 ** 70)):
        with pytest.raises(UnknownEdgeError,
                           match=f"^edge id {bad} is not a host edge$"):
            SpanningTree.from_edges(g, ids, (2, 1))
    # Ids that are not integers are named, never truncated.
    for ids, bad in (([0, 1, 2.5], "2.5"), ([0, 1, 2.9], "2.9"),
                     (iter([0, 1, 2.5]), "2.5"), ((0, 1, "2"), "'2'"),
                     (np.array([0.0, 1.0, 2.0]), "0.0"), ([0, 0, 2.5], "2.5"),
                     ([2 ** 70, 2.5], "2.5"), ([0, 1, True], "True"),
                     ([True, 1, 2], "True")):
        with pytest.raises(UnknownEdgeError,
                           match=f"^edge id {bad} is not an integer$"):
            SpanningTree.from_edges(g, ids, (2, 1))


def test_fundamental_cycle_t3():
    t = t3_rows_plus_central_column()
    g = t.host
    eid = g.edge_id((1, 1), (1, 2))
    assert t.fundamental_cycle(eid) == [(1, 1), (2, 1), (2, 2), (1, 2)]


def test_fundamental_cycle_comb():
    t = comb_tree(make_grid(3))
    eid = t.host.edge_id((1, 3), (2, 3))
    cyc = t.fundamental_cycle(eid)
    assert len(cyc) == 6
    assert cyc[0] == (1, 3) and cyc[-1] == (2, 3)


def test_fundamental_cycle_errors():
    t = t3_rows_plus_central_column()
    some_tree_edge = int(t.tree_edge_ids()[0])
    with pytest.raises(NotAChordError):
        t.fundamental_cycle(some_tree_edge)
    with pytest.raises(UnknownEdgeError):
        t.fundamental_cycle(500)


def test_cycle_box():
    box = cycle_box([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert (box.width, box.height, box.perimeter) == (1, 1, 4)
    box = cycle_box([(1, 1), (2, 1), (2, 2), (2, 3), (1, 3), (1, 2)])
    assert box.perimeter == 6
    box = cycle_box([(4, 4)])
    assert (box.width, box.height, box.perimeter) == (0, 0, 0)
    with pytest.raises(EmptyCycleError):
        cycle_box([])


def test_total_length_g2():
    g = make_grid(2)
    for drop in range(4):
        ids = [e for e in range(4) if e != drop]
        t = SpanningTree.from_edges(g, ids, (2, 1))
        stats = t.total_length()
        assert stats.L_total == 4
        assert stats.count == 1


def test_total_length_comb_g3():
    stats = comb_tree(make_grid(3)).total_length()
    assert stats.L_total == 20
    assert stats.P_total == 20
    assert stats.average == 5
    assert sorted(stats.lengths.tolist()) == [4, 4, 6, 6]


def test_total_length_no_chords():
    t = SpanningTree.from_edges(make_grid(1), [], (1, 1))
    with pytest.raises(NoChordsError):
        t.total_length()


def test_chord_count_formula():
    for n in range(2, 8):
        t = comb_tree(make_grid(n))
        assert t.total_length().count == (n - 1) ** 2


def test_lengths_even_and_at_least_perimeter():
    rng = random.Random(5)
    for n in (5, 9):
        for _ in range(5):
            t = random_spanning_tree(make_grid(n), rng.randrange(2 ** 30))
            stats = t.total_length()
            assert (stats.lengths % 2 == 0).all()
            assert (stats.lengths >= stats.perimeters).all()
            assert (stats.perimeters >= 4).all()
            assert stats.L_total >= stats.P_total


def test_length_formula_vs_explicit_all_small_trees():
    for n in (2, 3):
        g = make_grid(n)
        trees = []
        enumerate_spanning_trees(g, trees.append)
        for ids in trees:
            t = SpanningTree.from_edges(g, ids, (n, 1))
            for eid in t.chord_ids():
                eid = int(eid)
                fast = t.cycle_length(eid)
                assert fast == len(t.fundamental_cycle(eid))
                assert fast == explicit_cycle_length(t, eid)


def test_length_formula_vs_explicit_random_g10():
    g = make_grid(10)
    for seed in range(100):
        t = random_spanning_tree(g, seed)
        stats = t.total_length()
        for eid, length in zip(stats.edge_ids.tolist(), stats.lengths.tolist()):
            assert length == len(t.fundamental_cycle(eid))


def test_total_length_matches_explicit_cycles_exactly():
    t = random_spanning_tree(make_grid(7), 99)
    stats = t.total_length()
    for eid, length, perim in stats.records():
        cyc = t.fundamental_cycle(eid)
        assert len(cyc) == length
        assert cycle_box(cyc).perimeter == perim


def test_tree_file_roundtrip(tmp_path):
    t = comb_tree(make_grid(4))
    path = tmp_path / "t.txt"
    t.to_file(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n 4"
    assert lines[1] == "root 4 1"
    assert len(lines) == 2 + 15
    t2 = SpanningTree.from_file(path)
    assert t2.root == t.root
    assert set(t2.tree_edge_ids().tolist()) == set(t.tree_edge_ids().tolist())


def test_tree_file_bytes_and_loose_layout(tmp_path, monkeypatch):
    t = random_spanning_tree(make_grid(5), 3)
    ids = t.tree_edge_ids().tolist()
    assert len(ids) == 24
    # A line-by-line reference writer.
    expected = f"n 5\nroot {t.root[0]} {t.root[1]}\n"
    for eid in ids:
        expected += f"{eid}\n"
    path = tmp_path / "t.txt"
    t.to_file(path)
    assert path.read_text() == expected
    # Chunks that split the ids unevenly write the same bytes.
    for chunk in (1, 5, 15):
        monkeypatch.setattr(tree_module, "_CSV_CHUNK", chunk)
        t.to_file(path)
        assert path.read_text() == expected
    # Blank lines and padding around the ids read back to the same tree.
    path.write_text(f"\nn 5\n\n root {t.root[0]} {t.root[1]}\n\n"
                    + "".join(f"  {eid}\t\n \n" for eid in ids))
    back = SpanningTree.from_file(path)
    assert back.root == t.root
    assert np.array_equal(back.tree_edge_mask, t.tree_edge_mask)


@pytest.mark.parametrize("read,text,lineno", [
    (SpanningTree.from_file, "n 4\nroot 4 1\n0\nseven\n", 4),
    (SpanningTree.from_file, "n 4\n\n", 3),
    (SpanningTree.from_file, "n 4\nroot 4 1\n0\n3 4\n", 4),
    (SpanningTree.from_file, "n 4\nroot 4 1\n0\n1\n2 extra\n", 5),
    (SpanningTree.from_file, "n 4\nroot 4 1\n \t\n3 4\n", 4),
    (SpanningTree.from_file, "n x\nroot 4 1\n0\n1\n", 1),
    (SpanningTree.from_file, "n 4\nroot 4\n0\n1\n", 2),
    (ExpandedGrid.from_file, "n 5\ndup 0 1 1 0\ndup 2 1 2 0\n", 3),
    (ExpandedGrid.from_file, "n 5\nxedge h 1 1 d\n", 2),
    (ExpandedGrid.from_file, "\n\n", 3),
    (EchelonMatrix.from_file, "2 3 2\n0 0\n1 x\n", 3),
    (EchelonMatrix.from_file, "2 3 2\n0 0\n", 1),
], ids=["tree_bad_id", "tree_missing_root", "tree_two_ids",
        "tree_trailing_text", "tree_blank_then_two_ids",
        "tree_bad_side_digit_body", "tree_bad_root_digit_body",
        "expanded_dup_id",
        "expanded_truncated_xedge", "expanded_missing_side", "matrix_bad_entry",
        "matrix_entry_count"])
def test_parsers_raise_malformed_file_error_with_line(tmp_path, read, text,
                                                      lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MalformedFileError) as err:
        read(path)
    assert err.value.path == path
    assert err.value.lineno == lineno
    assert str(err.value).startswith(f"{path}:{lineno}: ")
    assert isinstance(err.value, ValueError)
    assert isinstance(err.value, GridCycleError)


def test_stats_csv(tmp_path, monkeypatch):
    stats = comb_tree(make_grid(3)).total_length()
    path = tmp_path / "stats.csv"
    stats.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "edge_id,length,perimeter"
    assert len(lines) == 1 + 4

    stats = random_spanning_tree(make_grid(8), 3).total_length()
    expected = io.StringIO(newline="")
    out = csv.writer(expected)
    out.writerow(["edge_id", "length", "perimeter"])
    for rec in stats.records():
        out.writerow(rec)
    expected = expected.getvalue().encode()
    assert expected.count(b"\r\n") == 1 + 49
    stats.to_csv(path)
    assert path.read_bytes() == expected
    # Chunks that split the rows unevenly write the same bytes.
    for chunk in (1, 5, 49):
        monkeypatch.setattr(tree_module, "_CSV_CHUNK", chunk)
        stats.to_csv(path)
        assert path.read_bytes() == expected


# -- integer-row writer and tree-file reader ------------------------------------

# Every digit-count boundary of an int64: 9/10, 99/100, ..., and the largest.
BOUNDARIES = sorted({0, 1, 2 ** 63 - 1}
                    | {10 ** k + d for k in range(1, 19) for d in (-1, 0)})


def write_rows(seps, *columns) -> bytes:
    buf = io.BytesIO()
    tree_module._write_rows(buf, seps, *columns)
    return buf.getvalue()


def printf_rows(seps, rows) -> bytes:
    """The reference: one ``%``-formatted string per row."""
    fmt = "".join("%d" + sep.decode() for sep in seps)
    return "".join(fmt % row for row in rows).encode()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 3),
       chunk=st.sampled_from([1, 5, 7, 1 << 16]))
def test_write_rows_matches_printf(data, ncols, chunk):
    value = st.one_of(st.sampled_from(BOUNDARIES),
                      st.integers(0, 2 ** 63 - 1), st.integers(0, 20000))
    rows = data.draw(st.lists(st.tuples(*[value] * ncols), max_size=40))
    seps = data.draw(st.lists(st.sampled_from([b",", b"\n", b"\r\n", b" "]),
                              min_size=ncols, max_size=ncols))
    columns = [np.array([row[i] for row in rows], dtype=np.int64)
               for i in range(ncols)]
    with patch.object(tree_module, "_CSV_CHUNK", chunk):
        assert write_rows(seps, *columns) == printf_rows(seps, rows)


@pytest.mark.parametrize("chunk", [1, 5, 7, 1 << 16])
def test_write_rows_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(tree_module, "_CSV_CHUNK", chunk)
    col = np.array(BOUNDARIES, dtype=np.int64)
    rev = col[::-1].copy()
    assert write_rows((b"\n",), col) == printf_rows((b"\n",),
                                                    zip(col.tolist()))
    # Narrow and wide columns side by side, and unsigned columns.
    rows = list(zip(rev.tolist(), col.tolist(), [7] * len(col)))
    assert write_rows((b" ", b",", b"\r\n"), rev, col.astype(np.uint64),
                      np.full(len(col), 7, dtype=np.uint8)) == printf_rows(
        (b" ", b",", b"\r\n"), rows)


def test_write_rows_rejects_what_it_cannot_write():
    assert write_rows((b",", b"\n"), np.array([], dtype=np.int64),
                      np.array([], dtype=np.int32)) == b""
    for columns in ([np.array([3, -1])], [np.array([1.0, 2.0])],
                    [np.array([2 ** 63], dtype=np.uint64)],
                    [np.array([True])], [np.array([[1, 2]])],
                    [np.array([1, 2]), np.array([1])]):
        with pytest.raises(ValueError):
            write_rows((b"\n",) * len(columns), *columns)
    for seps in ((), (b"",), (b"12345",), (b"\0",)):
        with pytest.raises(ValueError):
            write_rows(seps, np.array([1]))


@pytest.mark.parametrize("body,fast", [
    ("0\n1\n2\n", True),
    ("0\n1\n2", True),
    ("0\n1\n002\n", True),
    ("2\n0\n1\n", True),
    ("0\r\n1\r\n2\r\n", False),
    ("0\n1\n+2\n", False),
    ("0\n1\n" + "0" * 18 + "02\n", False),
    ("0\n\n1\n2\n", False),
    ("0\n1\n 2\n", False),
], ids=["as_written", "no_final_newline", "leading_zeros", "unsorted", "crlf",
        "sign", "20_digits", "blank_line", "padding"])
def test_tree_file_fast_path_matches_text_path(tmp_path, monkeypatch, body,
                                               fast):
    path = tmp_path / "t.txt"
    path.write_bytes(f"n 2\nroot 1 1\n{body}".encode())
    taken = tree_module._digit_lines(body.encode()) is not None
    assert taken == fast
    quick = SpanningTree.from_file(path)
    monkeypatch.setattr(tree_module, "_digit_lines", lambda body: None)
    slow = SpanningTree.from_file(path)
    assert quick.root == slow.root == (1, 1)
    assert quick.tree_edge_ids().tolist() == slow.tree_edge_ids().tolist()
    assert quick.tree_edge_ids().tolist() == [0, 1, 2]


def test_tree_file_fast_path_reads_large_trees(tmp_path, monkeypatch):
    for t in (build_tree(64), random_spanning_tree(make_grid(40), 11)):
        path = tmp_path / "t.txt"
        t.to_file(path)
        body = path.read_bytes().split(b"\n", 2)[2]
        ids = tree_module._digit_lines(body)
        assert ids.tolist() == [int(line) for line in body.splitlines()]
        assert np.array_equal(SpanningTree.from_file(path).tree_edge_mask,
                              t.tree_edge_mask)
    # An id past int64 takes the text path and names the id.
    path.write_text("n 2\nroot 1 1\n0\n1\n99999999999999999999\n")
    with pytest.raises(UnknownEdgeError,
                       match="^edge id 99999999999999999999 is not a host"):
        SpanningTree.from_file(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("0123456789 _+-\t\x1f\xa0x\u0663", max_size=5),
                max_size=6))
def test_tree_file_line_path_reads_lines_as_record_ints(body):
    """Below the header, the line path reads every non-blank line as
    ``record_ints`` reads a one-word line, and names the first line that
    ``record_ints`` rejects."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        path.write_text("n 2\nroot 1 1\n" + "\n".join(body) + "\n")
        expected, lineno = [], None
        for i, line in enumerate(body, 3):
            if line.strip():
                try:
                    expected += record_ints(path, i, line, "<edge-id>")
                except MalformedFileError:
                    lineno = i
                    break
        read = []
        with patch.object(SpanningTree, "from_edges",
                          lambda g, ids, root: read.extend(ids)):
            if lineno is None:
                SpanningTree.from_file(path)
                assert read == expected
            else:
                with pytest.raises(MalformedFileError) as err:
                    SpanningTree.from_file(path)
                assert err.value.lineno == lineno


# -- dual-tree cycle boxes ------------------------------------------------------

def assert_perimeters_match_explicit_cycles(t):
    stats = t.total_length()
    for eid, perim in zip(stats.edge_ids.tolist(),
                          stats.perimeters.tolist()):
        assert perim == cycle_box(t.fundamental_cycle(eid)).perimeter, eid


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_dual_perimeters_match_explicit_cycles_uniform(n):
    for seed in range(4):
        assert_perimeters_match_explicit_cycles(
            random_spanning_tree(make_grid(n), seed))


@pytest.mark.parametrize("n", [7, 16, 33])
def test_dual_perimeters_match_explicit_cycles_construction(n):
    assert_perimeters_match_explicit_cycles(build_tree(n))


def test_dual_perimeters_match_explicit_cycles_comb():
    # The comb's chords nest in long chains: its dual tree is deep.
    for n in (2, 3, 6, 11):
        assert_perimeters_match_explicit_cycles(comb_tree(make_grid(n)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_dual_perimeters_match_explicit_cycles_property(n, seed):
    assert_perimeters_match_explicit_cycles(
        random_spanning_tree(make_grid(n), seed))


@pytest.mark.parametrize("make", [lambda: build_tree(256),
                                  lambda: random_spanning_tree(make_grid(64),
                                                               7)],
                         ids=["build_tree_256", "uniform_64"])
def test_dual_perimeters_match_lifted_boxes(make):
    t = make()
    stats = t.total_length()
    n = t.n
    idx = np.arange(n * n)
    lifted = AncestorTables(t.parent_idx, t.depth_arr, idx % n + 1,
                            idx // n + 1)
    ua, ub = t.host.edge_endpoint_indices(stats.edge_ids)
    assert np.array_equal(stats.perimeters, lifted.path_perimeters(ua, ub))


# -- the int32 tree core --------------------------------------------------------

def test_tree_core_dtypes():
    # Vertex indices, depths and coordinates are int32; edge ids and the
    # per-chord statistics are int64.
    t = build_tree(16)
    g = t.host
    i32, i64 = np.dtype(np.int32), np.dtype(np.int64)
    tab = AncestorTables(t.parent_idx, t.depth_arr)
    assert {a.dtype for a in (t.parent_idx, t.depth_arr, tab.parent,
                              tab.depth, *tab.up)} == {i32}
    stats = t.total_length()
    assert {a.dtype for a in (stats.edge_ids, stats.lengths,
                              stats.perimeters)} == {i64}
    ua, ub = g.edge_endpoint_indices(stats.edge_ids)
    assert {ua.dtype, ub.dtype} == {i32}
    xt = XSpanningTree.from_host_tree(t)
    xt.tables.path_perimeters(ua, ub)
    assert set(xt.tables._lifted) == {"xmin", "xmax", "ymin", "ymax"}
    assert {a.dtype for tabs in xt.tables._lifted.values()
            for a in tabs} == {i32}
    assert {a.dtype for a in xt.grid.node_positions()} == {i32}
    r = xt._preorder_ranges()
    assert {a.dtype for a in (r.order, r.pre, r.size,
                              r.edge_length)} == {i32}
    assert r.edge.dtype == i64


def test_tree_core_peak_memory_per_vertex():
    # from_edges + total_length on T_256 under tracemalloc: about 70 bytes
    # per vertex with int32 vertex arrays and lengths from the dual fold
    # (110 with them from a lifting table), about 245 with int64 arrays.
    n = 256
    g = make_grid(n)
    ids = _edge_ids(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        SpanningTree.from_edges(g, ids, (n, 1)).total_length()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / g.num_vertices <= 150


def test_spiral_deeper_than_int16():
    # The spiral of the 182-grid has depth 182^2 - 1 = 33123 > 2^15 - 1.
    g = make_grid(182)
    t = spiral_tree(g)
    assert t.max_depth() == 182 * 182 - 1
    stats = t.total_length()
    pick = np.random.default_rng(182).choice(stats.count, 50, replace=False)
    eids = stats.edge_ids[pick]
    assert np.array_equal(t.cycle_lengths(eids), stats.lengths[pick])
    xt = XSpanningTree.from_host_tree(t)
    ua, ub = g.edge_endpoint_indices(eids)
    lifted = xt.tables.path_perimeters(ua, ub)
    for j, e in enumerate(eids.tolist()):
        assert stats.lengths[pick[j]] == explicit_cycle_length(t, e)
        assert (stats.perimeters[pick[j]]
                == cycle_box(t.fundamental_cycle(e)).perimeter)
        path = xt.path_refs(g.vertex_at(int(ua[j])), g.vertex_at(int(ub[j])))
        assert lifted[j] == xperimeter(xt.grid, path)


# -- cycle lengths from the dual fold ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       root=st.integers(0, 143))
def test_dual_lengths_match_explicit_and_lifted_any_root(n, seed, root):
    # Interior roots included: the fold then measures depths from (1, 1).
    g = make_grid(n)
    drawn = random_spanning_tree(g, seed)
    t = SpanningTree.from_edges(g, drawn.tree_edge_ids(),
                                g.vertex_at(root % (n * n)))
    chords = t.chord_ids()
    lifted = AncestorTables(t.parent_idx, t.depth_arr)
    ua, ub = g.edge_endpoint_indices(chords)
    d = t.depth_arr.astype(np.int64)
    expected = d[ua] + d[ub] - 2 * d[lifted.lca(ua, ub)] + 1
    stats = t.total_length()
    assert np.array_equal(stats.lengths, expected)
    assert np.array_equal(t.cycle_lengths(chords), expected)
    assert np.array_equal(t.cycle_lengths(chords[::-2]), expected[::-2])
    for eid, length in zip(chords.tolist(), expected.tolist()):
        assert length == explicit_cycle_length(t, eid)


def test_cycle_lengths_of_no_chords():
    for t in (build_tree(1), build_tree(4)):
        lengths = t.cycle_lengths([])
        assert lengths.tolist() == [] and lengths.dtype == np.int64


def test_host_tree_lengths_build_no_lifting_tables(monkeypatch):
    t = build_tree(32)
    stats = t.total_length()

    def refuse(*args, **kwargs):
        raise AssertionError("a host tree built AncestorTables")

    monkeypatch.setattr(AncestorTables, "__init__", refuse)
    again = SpanningTree.from_edges(t.host, t.tree_edge_ids(), t.root)
    assert again.total_length().records() == stats.records()
    assert np.array_equal(again.cycle_lengths(stats.edge_ids), stats.lengths)
    assert again.cycle_length(int(stats.edge_ids[0])) == stats.lengths[0]


@pytest.mark.parametrize("make", [lambda: spiral_tree(make_grid(9)),
                                  lambda: comb_tree(make_grid(10)),
                                  lambda: random_spanning_tree(make_grid(11),
                                                               3)],
                         ids=["spiral_9", "comb_10", "uniform_11"])
def test_chunked_length_pass_matches_explicit_walks(make):
    t = make()
    chords = t.chord_ids()
    stats = t.total_length()
    assert np.array_equal(stats.edge_ids, chords)
    for eid, length, perim in stats.records():
        cycle = t.fundamental_cycle(eid)
        assert length == explicit_cycle_length(t, eid)
        assert perim == cycle_box(cycle).perimeter
    assert np.array_equal(t.cycle_lengths(chords), stats.lengths)
    assert np.array_equal(t.cycle_lengths(chords[::-3]),
                          stats.lengths[::-3])


def test_chord_id_checks():
    t = build_tree(4)
    assert t.host.num_edges == 24
    for bad, named in (([-1], "-1"), ([24], "24"), ([3, 24, -2], "24"),
                       (np.array([5, 99], dtype=np.uint64), "99"),
                       ([4.7], "4.7"), ([3, 4.7], "4.7"), (np.array([4.0]),
                                                           "4.0"),
                       ([True], "True"), ([4, True], "True"),
                       ([4, np.True_], repr(np.True_)), (["4"], "'4'"),
                       ([3, 2 ** 70], str(2 ** 70))):
        with pytest.raises(UnknownEdgeError, match=f"edge id {named} "):
            t.cycle_lengths(bad)
    for bad in (-1, 24, 4.7):
        with pytest.raises(UnknownEdgeError):
            t.cycle_length(bad)
        with pytest.raises(UnknownEdgeError):
            t.fundamental_cycle(bad)
    assert t.cycle_lengths([]).tolist() == []
    chord = int(t.chord_ids()[0])
    for same in ([chord], np.array([chord], dtype=np.int32),
                 np.array([chord], dtype=np.uint8), [np.int64(chord)]):
        assert t.cycle_lengths(same).tolist() == [t.cycle_length(chord)]
    with pytest.raises(NotAChordError):
        t.cycle_lengths([int(t.tree_edge_ids()[0])])


def test_length_pass_peak_memory_per_vertex():
    # from_edges + total_length on T_512 under tracemalloc: about 70 bytes per
    # vertex with lengths and boxes from one dual fold whose rows are made
    # after the dual BFS, about 78 with a lifting table built for a chunked
    # LCA pass, and about 114 with the table kept by every tree.
    n = 512
    g = make_grid(n)
    ids = _edge_ids(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        SpanningTree.from_edges(g, ids, (n, 1)).total_length()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / g.num_vertices <= 90
