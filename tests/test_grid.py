import numpy as np
import pytest

from gridcycle.errors import (InvalidSizeError, LayerError, OutOfRangeError,
                              TilingError, TooLargeError)
from gridcycle.grid import GridGraph, make_grid


@pytest.mark.parametrize("n,vertices,edges", [(3, 9, 12), (1, 1, 0), (5, 25, 40)])
def test_make_grid_counts(n, vertices, edges):
    g = make_grid(n)
    assert g.num_vertices == vertices
    assert g.num_edges == edges
    assert len(g.edges()) == edges


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_make_grid_rejects_bad_sizes(bad):
    with pytest.raises(InvalidSizeError):
        make_grid(bad)


def test_grid_side_limit():
    # Vertex indices are int32: n^2 - 1 <= 2^31 - 1 exactly up to n = 46340.
    assert GridGraph(46340).num_vertices - 1 <= np.iinfo(np.int32).max
    assert 46341 ** 2 - 1 > np.iinfo(np.int32).max
    with pytest.raises(TooLargeError):
        GridGraph(46341)


def test_peripheral():
    g3 = make_grid(3)
    assert not g3.is_peripheral((2, 2))
    assert g3.is_peripheral((1, 2))
    g2 = make_grid(2)
    assert g2.is_peripheral((2, 2))
    with pytest.raises(OutOfRangeError):
        g3.is_peripheral((0, 2))


def test_peripheral_count_and_degree_agreement():
    for n in range(2, 9):
        g = make_grid(n)
        per = [v for v in g.vertices() if g.is_peripheral(v)]
        assert len(per) == 4 * n - 4
        for v in g.vertices():
            assert g.is_peripheral(v) == (g.degree(v) < 4)


def test_edge_indexing_contract():
    g = make_grid(4)
    assert g.edge_id((1, 1), (2, 1)) == 0
    assert g.edge_id((2, 3), (3, 3)) == 2 * 3 + 1
    assert g.edge_id((1, 1), (1, 2)) == 4 * 3
    assert g.edge_id((3, 2), (3, 3)) == 4 * 3 + 1 * 4 + 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10])
def test_edge_indexing_bijection(n):
    g = make_grid(n)
    seen = set()
    for eid in range(g.num_edges):
        e = g.edge(eid)
        assert e.id == eid
        assert g.edge_id(e.a, e.b) == eid
        assert g.edge_id(e.b, e.a) == eid
        seen.add((e.a, e.b))
    assert len(seen) == g.num_edges
    if n >= 2:
        ua, ub = g.edge_endpoint_indices(np.arange(g.num_edges))
        for eid in range(g.num_edges):
            e = g.edge(eid)
            assert (g.vertex_index(e.a), g.vertex_index(e.b)) == (ua[eid], ub[eid])


@pytest.mark.parametrize("n", range(1, 13))
def test_edge_ids_inverts_edge_id(n):
    g = make_grid(n)
    edges = g.edges()
    ua = np.array([g.vertex_index(e.a) for e in edges], dtype=np.int64)
    ub = np.array([g.vertex_index(e.b) for e in edges], dtype=np.int64)
    expect = [g.edge_id(e.a, e.b) for e in edges]
    assert g.edge_ids(ua, ub).tolist() == expect
    assert g.edge_ids(ub, ua).tolist() == expect
    assert g.edge_ids(*g.edge_endpoint_indices(np.arange(g.num_edges))
                      ).tolist() == list(range(g.num_edges))


@pytest.mark.parametrize("n,u,v", [
    (4, 3, 4),      # row wrap: (4, 1) and (1, 2)
    (4, 4, 3),
    (4, 7, 8),      # row wrap: (4, 2) and (1, 3)
    (4, 0, 2),      # same row, two apart
    (4, 0, 5),      # diagonal
    (4, 5, 5),      # a vertex and itself
    (4, 12, 16),    # past the top row
    (4, -1, 0),     # before the first vertex
    (4, 15, 16),    # row wrap past the last vertex
    (1, 0, 1),
    (1, 0, 0),
    (2, 1, 2),      # row wrap: (2, 1) and (1, 2)
])
def test_edge_ids_rejects_non_edges(n, u, v):
    g = make_grid(n)
    with pytest.raises(OutOfRangeError, match=f"{u} and {v} are not adjacent"):
        g.edge_ids([u], [v])
    if n > 1:
        # A bad pair behind a good one still raises, and is the one named.
        with pytest.raises(OutOfRangeError, match=f"{u} and {v} are not"):
            g.edge_ids([0, u], [1, v])


def test_tiles_25():
    g = make_grid(25)
    tiles = g.tile_5x5()
    assert len(tiles) == 25
    center = tiles[12]
    assert (center.x_lo, center.x_hi, center.y_lo, center.y_hi) == (11, 15, 11, 15)
    covered = set()
    for t in tiles:
        for x in range(t.x_lo, t.x_hi + 1):
            for y in range(t.y_lo, t.y_hi + 1):
                assert (x, y) not in covered
                covered.add((x, y))
    assert len(covered) == 625


def test_tiles_central_ranges():
    for n in (5, 10, 25, 125):
        g = make_grid(n)
        c = g.central_tile()
        assert (c.x_lo, c.x_hi) == (2 * n // 5 + 1, 3 * n // 5)
        assert (c.y_lo, c.y_hi) == (2 * n // 5 + 1, 3 * n // 5)


def test_tiles_singletons_and_error():
    assert all(t.side == 1 for t in make_grid(5).tile_5x5())
    with pytest.raises(TilingError):
        make_grid(6).tile_5x5()


def test_concentric_cycle_golden():
    g = make_grid(5)
    c1 = g.concentric_cycle(1)
    assert len(c1) == 16
    assert c1[0] == (1, 1)
    assert g.concentric_cycle(2) == [(2, 2), (3, 2), (4, 2), (4, 3), (4, 4),
                                     (3, 4), (2, 4), (2, 3)]
    with pytest.raises(LayerError):
        g.concentric_cycle(3)


def test_concentric_cycles_are_cycles_and_partition():
    for n in (4, 5, 8, 9):
        g = make_grid(n)
        seen = set()
        for i in range(1, n // 2 + 1):
            ring = g.concentric_cycle(i)
            for j, v in enumerate(ring):
                w = ring[(j + 1) % len(ring)]
                assert abs(v[0] - w[0]) + abs(v[1] - w[1]) == 1
                assert v not in seen
                seen.add(v)
        expect = n * n if n % 2 == 0 else n * n - 1
        assert len(seen) == expect


def test_boundary_positions_follow_cycle():
    for n in (2, 5, 7):
        g = make_grid(n)
        ring = g.boundary_cycle()
        for i, v in enumerate(ring):
            assert g.boundary_position(v) == i
        assert g.boundary_distance((1, 1), (1, 1)) == 0


def test_boundary_distance_antipodal():
    g = make_grid(5)
    assert g.boundary_distance((1, 1), (5, 5)) == 8
    assert g.boundary_distance((1, 1), (3, 1)) == 2
