import json
import random
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (comb_tree, reference_contract, reference_edge_lengths,
                      reference_is_drawable, reference_long_edge, spiral_tree)
from gridcycle.construction import build_tree
from gridcycle.errors import (CounterexampleError, DegeneratePointError,
                              EmptyCycleError, GridCycleError, LayerError,
                              MalformedEdgeError, MalformedFileError,
                              NotDrawableError, OutOfRangeError,
                              UnknownEdgeError)
from gridcycle.expanded import (Duplicate, ExpandedGrid, XSpanningTree,
                                _is_planar, _ring_steps, contract,
                                find_long_edge,
                                lemma_lower_check, lstar, plain, reroute_walk,
                                walk_length, winding_number, xperimeter)
from gridcycle.grid import SubgridRef, make_grid
from gridcycle.search import random_spanning_tree
from gridcycle.tree import SpanningTree


def host_chord_perimeters(xt, grid, eids):
    ua, ub = grid.host.edge_endpoint_indices(np.asarray(eids))
    return xt.tables.path_perimeters(ua, ub)


# -- extra-edge lengths -------------------------------------------------------

def test_xedge_lengths_g5():
    g = make_grid(5)
    h = ExpandedGrid(g, [Duplicate(0, (1, 2), 0)],
                     [((1, 1), (3, 1)), ((1, 1), ("d", 0)), ((1, 1), (5, 5))])
    assert h.xedge_length(0) == 2
    assert h.xedge_length(1) == 1
    assert h.xedge_length(2) == 8


def test_xedge_rejects_interior_endpoint():
    g = make_grid(5)
    with pytest.raises(MalformedEdgeError):
        ExpandedGrid(g, [], [((2, 2), (1, 1))])
    with pytest.raises(MalformedEdgeError):
        ExpandedGrid(g, [Duplicate(0, (3, 3), 0)], [])


def test_drawability():
    g = make_grid(5)
    with pytest.raises(NotDrawableError):
        ExpandedGrid(g, [], [((1, 1), (3, 1)), ((2, 1), (4, 1))])
    h = ExpandedGrid(g, [], [((1, 1), (4, 1)), ((2, 1), (3, 1))])
    assert h.is_drawable()


def drawable_outcome(g, dups, xedges) -> bool:
    """Whether ``ExpandedGrid`` accepts the grid; it raises
    ``NotDrawableError`` when ``is_drawable`` says no."""
    try:
        ExpandedGrid(g, dups, xedges)
    except NotDrawableError:
        return False
    return True


def test_drawability_of_duplicate_graphs():
    g = make_grid(5)
    bases = [(1, 1), (3, 1), (5, 3), (3, 5), (1, 3)]
    dups = [Duplicate(k, b, 0) for k, b in enumerate(bases)]
    d = [("d", k) for k in range(5)]
    k5 = [(d[i], d[j]) for i in range(5) for j in range(i + 1, 5)]
    k4 = [e for e in k5 if d[4] not in e]
    assert not drawable_outcome(g, dups, k5)
    assert drawable_outcome(g, dups, k4)
    # K4 on duplicates, three of them tied to the ring: Q_B is K4 with a
    # triangle around three of its vertices, planar.  Tying the fourth
    # makes Q_B a cube with both diagonals in its inner face, nonplanar.
    ties = [(d[0], (1, 1)), (d[1], (3, 1)), (d[2], (5, 3))]
    assert drawable_outcome(g, dups, k4 + ties)
    assert not drawable_outcome(g, dups, k4 + ties + [(d[3], (3, 5))])
    # A path of duplicates from (1, 1) to (5, 5) and a chord from (5, 1)
    # to (1, 5) interleave; the same path tied back to (1, 1) does not.
    path = [((1, 1), d[0]), (d[0], d[1]), (d[1], (5, 5))]
    assert not drawable_outcome(g, dups, path + [((5, 1), (1, 5))])
    assert drawable_outcome(g, dups, path[:2] + [(d[1], (2, 1)),
                                                 ((5, 1), (1, 5))])


@pytest.mark.parametrize("n,seed,grids", [
    (25, 1, [25] + [5] * 25), (25, 2, [25] + [5] * 25),
    (125, 1401, [125] + [25] * 25), (130, 7, [130, 125] + [25] * 25)])
def test_drawable_matches_reference_on_lower_tiles(monkeypatch, n, seed,
                                                   grids):
    """Every grid that ``lemma_lower_check`` contracts from a uniform tree,
    the general form's 125-grid with duplicates included, gets the same
    answer from the bridge rule and from networkx."""
    sides = []
    fast = ExpandedGrid.is_drawable

    def both(h):
        ok = fast(h)
        assert ok == reference_is_drawable(h)
        sides.append(h.host.n)
        return ok

    monkeypatch.setattr(ExpandedGrid, "is_drawable", both)
    t = random_spanning_tree(make_grid(n), seed)
    xt = XSpanningTree.from_host_tree(t)
    lemma_lower_check(xt.grid, xt)
    assert sides == grids


@st.composite
def drawing_cases(draw):
    """A grid of side 2..9 with duplicates and extra edges made of gadgets:
    chords (ring edges among them), duplicate forests and cycles, and K5 or
    K3,3 on duplicates with 0-3 ties to the ring; some edges repeated, some
    duplicates left isolated."""
    n = draw(st.integers(2, 9))
    ring = make_grid(n).boundary_cycle()
    at = st.integers(0, len(ring) - 1)
    bases, xedges = [], []

    def new_dups(k):
        first = len(bases)
        bases.extend(ring[draw(at)] for _ in range(k))
        return [("d", i) for i in range(first, first + k)]

    for kind in draw(st.lists(st.sampled_from(
            ["chord", "ring edge", "forest", "cycle", "K5", "K3,3"]),
            min_size=1, max_size=4)):
        if kind == "chord":
            a, b = draw(at), draw(at)
            if a != b:
                xedges.append((ring[a], ring[b]))
            continue
        if kind == "ring edge":
            a = draw(at)
            xedges.append((ring[a], ring[(a + 1) % len(ring)]))
            continue
        if kind == "forest":
            d = new_dups(draw(st.integers(1, 6)))
            xedges += [(d[i], d[draw(st.integers(0, i - 1))])
                       for i in range(1, len(d)) if draw(st.integers(0, 3))]
            ties = draw(st.integers(0, 6))
        elif kind == "cycle":
            d = new_dups(draw(st.integers(3, 6)))
            xedges += list(zip(d, d[1:] + d[:1]))
            ties = draw(st.integers(0, 4))
        elif kind == "K5":
            d = new_dups(5)
            xedges += [(d[i], d[j]) for i in range(5) for j in range(i + 1, 5)]
            ties = draw(st.integers(0, 3))
        else:
            d = new_dups(6)
            xedges += [(d[i], d[j]) for i in range(3) for j in range(3, 6)]
            ties = draw(st.integers(0, 3))
        xedges += [(d[draw(st.integers(0, len(d) - 1))], ring[draw(at)])
                   for _ in range(ties)]
    if xedges and draw(st.booleans()):
        a, b = xedges[draw(st.integers(0, len(xedges) - 1))]
        xedges.append((b, a))
    new_dups(draw(st.integers(0, 2)))
    dups = [Duplicate(k, b, 0) for k, b in enumerate(bases)]
    return make_grid(n), dups, xedges


def test_drawable_matches_reference_on_generated_grids():
    outcomes = set()

    @settings(max_examples=400, deadline=None)
    @given(drawing_cases())
    def check(case):
        g, dups, xedges = case
        ok = drawable_outcome(g, dups, xedges)
        assert ok == reference_is_drawable(SimpleNamespace(host=g,
                                                           xedges=xedges))
        outcomes.add(ok)

    check()
    assert outcomes == {True, False}


def test_is_planar_matches_networkx_on_small_graphs():
    """The per-bridge planarity routine against networkx on random graphs
    of up to 9 vertices, half of them glued to a second random graph at a
    cut vertex, with labels shuffled; plus named planar and nonplanar
    graphs."""
    rng = random.Random(12)
    outcomes = set()
    for _ in range(3000):
        nv, p = rng.randint(1, 9), rng.random()
        edges = [(a, b) for a in range(nv) for b in range(a + 1, nv)
                 if rng.random() < p]
        if rng.random() < 0.5:
            m, q = rng.randint(2, 7), rng.random()
            edges += [(a + nv - 1, b + nv - 1) for a in range(m)
                      for b in range(a + 1, m) if rng.random() < q]
        label = rng.sample(range(100), 2 * 9)
        edges = [(label[a], label[b]) for a, b in edges]
        rng.shuffle(edges)
        ok = _is_planar(edges)
        assert ok == nx.check_planarity(nx.Graph(edges))[0]
        outcomes.add(ok)
    assert outcomes == {True, False}
    k5_minus = [e for e in nx.complete_graph(5).edges if e != (0, 1)]
    for graph, planar in [(nx.complete_graph(5), False),
                          (nx.complete_bipartite_graph(3, 3), False),
                          (nx.petersen_graph(), False),
                          (nx.complete_graph(4), True),
                          (nx.Graph(k5_minus), True),
                          (nx.octahedral_graph(), True),
                          (nx.icosahedral_graph(), True),
                          (nx.grid_2d_graph(4, 4), True)]:
        assert _is_planar(list(graph.edges)) == planar


# -- perimeters of walks ------------------------------------------------------

def test_xperimeter_host_square():
    h = plain(make_grid(5))
    assert xperimeter(h, [(3, 3), (4, 3), (4, 4), (3, 4)]) == 4


def test_xperimeter_parallel_edge_cycle():
    g = make_grid(5)
    h = ExpandedGrid(g, [], [((3, 1), (4, 1))])
    assert xperimeter(h, [(3, 1), (4, 1)]) == 2


def test_xperimeter_duplicates_only():
    g = make_grid(5)
    h = ExpandedGrid(g, [Duplicate(0, (1, 1), 0), Duplicate(1, (5, 1), 0)],
                     [(("d", 0), ("d", 1))])
    assert xperimeter(h, [("d", 0), ("d", 1)]) == 8
    with pytest.raises(EmptyCycleError):
        xperimeter(h, [])


# -- perimeter sums -----------------------------------------------------------

def test_lstar_plain_examples():
    g3 = make_grid(3)
    assert lstar(XSpanningTree.from_host_tree(comb_tree(g3))) == 20
    g2 = make_grid(2)
    t2 = SpanningTree.from_edges(g2, [0, 1, 2], (2, 1))
    assert lstar(XSpanningTree.from_host_tree(t2)) == 4


def test_lstar_g5_at_least_32():
    g = make_grid(5)
    for seed in range(10):
        t = random_spanning_tree(g, seed)
        assert lstar(XSpanningTree.from_host_tree(t)) >= 32


def test_xtree_cardinality_error():
    h = plain(make_grid(2))
    with pytest.raises(GridCycleError):
        XSpanningTree(h, [0, 1], [], (1, 1))


def test_xtree_rejects_ids_that_are_not_edges():
    # Host ids and extra-edge indices are named, never truncated.
    h = ExpandedGrid(make_grid(2), [Duplicate(0, (1, 1), 0)],
                     [((1, 1), ("d", 0))])
    for hids, named in (([0.5, 1, 3], "0.5 is not an integer"),
                        ([0, True, 3], "True is not an integer"),
                        ([0, 1, 2 ** 70], f"{2 ** 70} is not a host edge"),
                        ([0, 1, 4], "4 is not a host edge"),
                        ([-1, 1, 3], "-1 is not a host edge")):
        with pytest.raises(UnknownEdgeError, match=f"^edge id {named}$"):
            XSpanningTree(plain(make_grid(2)), hids, [])
    for xids, named in (([0.5], "0.5"), ([True], "True"), ([0, 0.0], "0.0")):
        with pytest.raises(UnknownEdgeError,
                           match=f"^edge id {named} is not an integer$"):
            XSpanningTree(h, [0, 1], xids, (1, 1))
    with pytest.raises(GridCycleError, match="^duplicate host edge ids$"):
        XSpanningTree(plain(make_grid(2)), [0, 1, 1], [])
    with pytest.raises(GridCycleError,
                       match="^duplicate extra-edge indices$"):
        XSpanningTree(h, [0, 1], [0, 0], (1, 1))
    xt = XSpanningTree(h, np.array([0, 1, 3], dtype=np.int32),
                       [np.int64(0)], (1, 1))
    assert xt.xedge_indices == (0,) and xt.host_chord_ids().tolist() == [2]



# -- rooting -------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda n: build_tree(n),
    lambda n: random_spanning_tree(make_grid(n), 300 + n),
    lambda n: comb_tree(make_grid(n)),
    lambda n: spiral_tree(make_grid(n)),
], ids=["construction", "uniform", "comb", "spiral"])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_from_host_tree_roots_like_host_tree(make, n):
    t = make(n)
    xt = XSpanningTree.from_host_tree(t)
    assert np.array_equal(xt.parent_idx, t.parent_idx)
    assert np.array_equal(xt.depth_arr, t.depth_arr)


def test_xtree_edge_set_not_spanning():
    # All four edges of the 2-grid: as many edges as a spanning tree of the
    # five nodes needs, but a cycle, and the duplicate is never reached.
    h = ExpandedGrid(make_grid(2), [Duplicate(0, (1, 1), 0)])
    with pytest.raises(GridCycleError,
                       match="edge set does not span the expanded grid"):
        XSpanningTree(h, [0, 1, 2, 3], [], (1, 1))
    # The same count through an extra edge: a 2-cycle with a host edge.
    h = ExpandedGrid(make_grid(2), [Duplicate(0, (1, 1), 0)],
                     [((1, 1), (2, 1))])
    with pytest.raises(GridCycleError,
                       match="edge set does not span the expanded grid"):
        XSpanningTree(h, [0, 1, 2], [0], ("d", 0))


def test_contract_to_single_vertex_roots():
    g, h, t = g4_comb_setup()
    for x, y in ((1, 1), (2, 3), (4, 4)):
        og, ot = contract(h, t, SubgridRef(x, x, y, y))
        assert ot.parent_idx.tolist() == [0]
        assert ot.depth_arr.tolist() == [0]
        assert ot.path_refs((1, 1), (1, 1)) == [(1, 1)]
        assert lstar(ot) == 0
        assert ot.tables.path_perimeters([0], [0]).tolist() == [0]


# -- contraction --------------------------------------------------------------

def g4_comb_setup():
    g = make_grid(4)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    return g, h, t


def test_contract_identity():
    g, h, t = g4_comb_setup()
    og, ot = contract(h, t, SubgridRef(1, 4, 1, 4))
    assert og is h and ot is t


def test_contract_g4_comb_hand_trace():
    g, h, t = g4_comb_setup()
    og, ot = contract(h, t, SubgridRef(3, 4, 3, 4))
    assert og.host.n == 2
    assert og.origin == (2, 2)
    assert og.duplicates == ()
    assert og.xedges == (((1, 1), (2, 1)),)
    assert og.xedge_lengths == (1,)
    host_tree = set(np.nonzero(ot.host_edge_mask)[0].tolist())
    assert host_tree == {og.host.edge_id((1, 1), (1, 2)),
                         og.host.edge_id((2, 1), (2, 2))}
    assert ot.xedge_indices == (0,)


def test_contract_shrinks_perimeter_6_to_2():
    g, h, t = g4_comb_setup()
    eid = g.edge_id((3, 3), (4, 3))
    assert int(host_chord_perimeters(t, h, [eid])[0]) == 6
    og, ot = contract(h, t, SubgridRef(3, 4, 3, 4))
    sub_eid = og.host.edge_id((1, 1), (2, 1))
    assert int(host_chord_perimeters(ot, og, [sub_eid])[0]) == 2


def test_contract_range_errors():
    g, h, t = g4_comb_setup()
    with pytest.raises(OutOfRangeError):
        contract(h, t, SubgridRef(3, 5, 3, 5))
    with pytest.raises(OutOfRangeError):
        contract(h, t, SubgridRef(1, 2, 1, 3))


def test_contract_single_vertex_subgrid():
    g, h, t = g4_comb_setup()
    og, ot = contract(h, t, SubgridRef(2, 2, 2, 2))
    assert og.host.n == 1
    assert og.duplicates == () and og.xedges == ()


def test_contract_monotone_and_well_formed_random():
    g = make_grid(25)
    h = plain(g)
    for seed in range(6):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
        for tile in g.tile_5x5():
            og, ot = contract(h, t, tile)
            nn = og.num_nodes
            assert int(ot.host_edge_mask.sum()) + len(ot.xedge_indices) == nn - 1
            chords = ot.host_chord_ids()
            if len(chords) == 0:
                continue
            per_sub = host_chord_perimeters(ot, og, chords)
            xo, yo = og.origin
            top_ids = []
            for c in chords:
                e = og.host.edge(int(c))
                top_ids.append(g.edge_id((e.a[0] + xo, e.a[1] + yo),
                                         (e.b[0] + xo, e.b[1] + yo)))
            per_top = host_chord_perimeters(t, h, top_ids)
            assert (per_sub <= per_top).all()


def test_contract_cycle_length_at_least_perimeter():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 11), h)
    for tile in g.tile_5x5()[:7]:
        og, ot = contract(h, t, tile)
        for c in ot.host_chord_ids().tolist()[:10]:
            e = og.host.edge(int(c))
            cycle = ot.path_refs(e.a, e.b)
            assert walk_length(ot, cycle) >= xperimeter(og, cycle)


def test_contract_twice_through_expanded_input():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 4), h)
    mid_g, mid_t = contract(h, t, SubgridRef(1, 10, 1, 10))
    assert mid_g.host.n == 10
    inner_g, inner_t = contract(mid_g, mid_t, SubgridRef(2, 6, 2, 6))
    assert inner_g.host.n == 5
    nn = inner_g.num_nodes
    assert int(inner_t.host_edge_mask.sum()) + len(inner_t.xedge_indices) == nn - 1
    chords = inner_t.host_chord_ids()
    per_in = host_chord_perimeters(inner_t, inner_g, chords)
    xo, yo = inner_g.origin
    mid_ids = [mid_g.host.edge_id(
        (inner_g.host.edge(int(c)).a[0] + xo, inner_g.host.edge(int(c)).a[1] + yo),
        (inner_g.host.edge(int(c)).b[0] + xo, inner_g.host.edge(int(c)).b[1] + yo))
        for c in chords]
    per_mid = host_chord_perimeters(mid_t, mid_g, mid_ids)
    assert (per_in <= per_mid).all()


# -- the contraction kernel against the per-node reference -------------------

def assert_contract_matches_reference(h, t, sub):
    """Contract with the kernel and with ``reference_contract``; every part
    of the two results must be equal, extra-edge order included."""
    og, ot = contract(h, t, sub)
    rg, rt = reference_contract(h, t, sub)
    assert og.host == rg.host
    assert og.origin == rg.origin
    assert og.duplicates == rg.duplicates
    assert og.xedges == rg.xedges
    assert og.xedge_lengths == rg.xedge_lengths
    assert np.array_equal(ot.host_edge_mask, rt.host_edge_mask)
    assert ot.xedge_indices == rt.xedge_indices
    assert np.array_equal(ot.parent_idx, rt.parent_idx)
    assert np.array_equal(ot.depth_arr, rt.depth_arr)
    return og, ot


@pytest.mark.parametrize("n,seeds", [(5, 4), (10, 4), (25, 3), (125, 1)])
def test_contract_matches_reference_uniform_tiles(n, seeds):
    g = make_grid(n)
    h = plain(g)
    for seed in range(seeds):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, 500 + seed), h)
        for tile in g.tile_5x5():
            assert_contract_matches_reference(h, t, tile)


@pytest.mark.parametrize("make", [comb_tree, spiral_tree],
                         ids=["comb", "spiral"])
@pytest.mark.parametrize("n", [10, 25])
def test_contract_matches_reference_deep_trees(make, n):
    g = make_grid(n)
    h = plain(g)
    t = XSpanningTree.from_host_tree(make(g), h)
    for tile in g.tile_5x5():
        assert_contract_matches_reference(h, t, tile)
    assert_contract_matches_reference(h, t, SubgridRef(2, n - 1, 2, n - 1))


def test_contract_matches_reference_expanded_inputs():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 4), h)
    mid_g, mid_t = assert_contract_matches_reference(h, t,
                                                     SubgridRef(8, 17, 8, 17))
    assert mid_g.duplicates and mid_g.xedges
    inner_g, inner_t = assert_contract_matches_reference(
        mid_g, mid_t, SubgridRef(3, 7, 3, 7))
    assert inner_g.host.n == 5 and inner_g.duplicates
    for tile in mid_g.host.tile_5x5():
        assert_contract_matches_reference(mid_g, mid_t, tile)
    for tile in inner_g.host.tile_5x5():
        assert_contract_matches_reference(inner_g, inner_t, tile)


def test_contract_matches_reference_general_form_second_level():
    g = make_grid(130)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 130), h)
    sg, st_ = assert_contract_matches_reference(h, t,
                                                SubgridRef(1, 125, 1, 125))
    assert sg.duplicates and sg.xedges
    for tile in sg.host.tile_5x5():
        assert_contract_matches_reference(sg, st_, tile)


def test_contract_matches_reference_identity_and_single_vertex():
    g, h, t = g4_comb_setup()
    for contract_to in (contract, reference_contract):
        og, ot = contract_to(h, t, SubgridRef(1, 4, 1, 4))
        assert og is h and ot is t
    for x in range(1, 5):
        for y in range(1, 5):
            og, _ = assert_contract_matches_reference(h, t,
                                                      SubgridRef(x, x, y, y))
            assert og.origin == (x - 1, y - 1)


@pytest.mark.parametrize("sub,other_grid", [
    (SubgridRef(3, 5, 3, 5), False),
    (SubgridRef(0, 1, 0, 1), False),
    (SubgridRef(1, 2, 1, 3), False),
    (SubgridRef(1, 2, 1, 2), True),
], ids=["beyond_grid", "below_grid", "not_square", "wrong_grid"])
def test_contract_errors_match_reference(sub, other_grid):
    g, h, t = g4_comb_setup()
    grid = plain(g) if other_grid else h
    with pytest.raises(GridCycleError) as new:
        contract(grid, t, sub)
    with pytest.raises(GridCycleError) as ref:
        reference_contract(grid, t, sub)
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_contract_matches_reference_property(data, n, seed):
    def square(side_max):
        side = data.draw(st.integers(1, side_max))
        x = data.draw(st.integers(1, side_max - side + 1))
        y = data.draw(st.integers(1, side_max - side + 1))
        return SubgridRef(x, x + side - 1, y, y + side - 1)

    g = make_grid(n)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
    og, ot = assert_contract_matches_reference(h, t, square(n))
    if data.draw(st.booleans()):
        assert_contract_matches_reference(og, ot, square(og.host.n))


# -- weighted depth and the two box paths --------------------------------------

def assert_wdepth_matches_walks(t):
    """Twice every node's weighted depth is the length of the closed walk
    from the root to it and back, and twice the root path's length summed
    over the edge-by-edge length table of conftest."""
    wd = t.wdepth()
    grid = t.grid
    lengths = reference_edge_lengths(t)
    for v in range(grid.num_nodes):
        path = t.path_refs(t.root_ref, grid.index_ref(v))
        idx = [grid.ref_index(r) for r in path]
        ref = sum(lengths[min(a, b), max(a, b)] for a, b in zip(idx, idx[1:]))
        assert walk_length(t, path + path[-2:0:-1]) == 2 * ref, v
        assert wd[v] == ref, v


def test_wdepth_uniform_and_comb():
    for n, seed in ((2, 0), (7, 1), (12, 2), (12, 3)):
        g = make_grid(n)
        assert_wdepth_matches_walks(
            XSpanningTree.from_host_tree(random_spanning_tree(g, seed)))
    for n in (3, 10):
        assert_wdepth_matches_walks(
            XSpanningTree.from_host_tree(comb_tree(make_grid(n))))


def test_wdepth_expanded_trees():
    g = make_grid(25)
    h = plain(g)
    for seed in (4, 5):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
        mid_g, mid_t = contract(h, t, SubgridRef(8, 17, 8, 17))
        inner_g, inner_t = contract(mid_g, mid_t, SubgridRef(3, 7, 3, 7))
        for xt in (mid_t, inner_t):
            assert max(xt.grid.xedge_lengths, default=0) > 1
            assert_wdepth_matches_walks(xt)


@pytest.mark.parametrize("n", [5, 25, 125])
def test_lstar_equals_dual_perimeter_sum_construction(n):
    t = build_tree(n)
    assert lstar(XSpanningTree.from_host_tree(t)) == t.total_length().P_total


@pytest.mark.parametrize("n", [5, 25])
def test_lstar_equals_dual_perimeter_sum_uniform(n):
    g = make_grid(n)
    for seed in range(3):
        t = random_spanning_tree(g, 700 + seed)
        assert lstar(XSpanningTree.from_host_tree(t)) == t.total_length().P_total


@pytest.mark.parametrize("n", [5, 6, 13, 25, 40])
def test_lstar_plain_grid_skips_lifted_tables(n):
    # On a plain grid lstar takes the dual tree's boxes and builds no lifted
    # box table; the lifted fold stays the reference it must equal.
    g = make_grid(n)
    for seed in range(2):
        xt = XSpanningTree.from_host_tree(random_spanning_tree(g, 900 + seed))
        value = lstar(xt)
        assert not xt.tables._lifted
        chords = xt.host_chord_ids()
        assert value == int(host_chord_perimeters(xt, xt.grid, chords).sum())


def test_lstar_expanded_grid_folds_lifted_tables():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 801), h)
    og, ot = contract(h, t, SubgridRef(6, 10, 6, 10))
    assert og.duplicates or og.xedges
    assert not ot.tables._lifted
    value = lstar(ot)
    assert set(ot.tables._lifted) == {"xmin", "xmax", "ymin", "ymax"}
    chords = ot.host_chord_ids()
    assert value == int(host_chord_perimeters(ot, og, chords).sum())


# -- lifted path folds against explicit walks ---------------------------------

def assert_lifted_folds_match_walks(xt, rng):
    """Every host chord's lifted distance, path perimeter and band hits
    against its explicit ``path_refs`` walk."""
    grid = xt.grid
    chords = xt.host_chord_ids()
    ua, ub = grid.host.edge_endpoint_indices(chords)
    xs, ys = xt.tables.xs, xt.tables.ys
    n = grid.host.n
    flag_sets = {("rows", 2, n - 1): (ys >= 2) & (ys <= n - 1),
                 ("cols", 1, 1): xs == 1,
                 ("dups",): np.arange(grid.num_nodes) >= grid.host.num_vertices}
    for k, p in enumerate((0.02, 0.1, 0.3)):
        flag_sets[("random", k)] = rng.random(grid.num_nodes) < p
    d = xt.depth_arr.astype(np.int64)
    dist = d[ua] + d[ub] - 2 * d[xt.tables.lca(ua, ub)]
    per = xt.tables.path_perimeters(ua, ub)
    hits = {key: xt.path_hits(ua, ub, flags)
            for key, flags in flag_sets.items()}
    stacked = xt.path_hits(ua, ub, np.stack(list(flag_sets.values())))
    assert np.array_equal(stacked, np.stack(list(hits.values())))
    for j, (a, b) in enumerate(zip(ua.tolist(), ub.tolist())):
        path = xt.path_refs(grid.index_ref(a), grid.index_ref(b))
        assert dist[j] == len(path) - 1
        assert per[j] == xperimeter(grid, path)
        on_path = [grid.ref_index(r) for r in path]
        for key, flags in flag_sets.items():
            assert hits[key][j] == flags[on_path].any(), (key, j)
    return len(chords)


@pytest.mark.parametrize("n", [2, 7, 25])
def test_lifted_folds_match_walks_on_spiral(n):
    # The deepest tree: depth n^2 - 1 and the most lifting levels.
    xt = XSpanningTree.from_host_tree(spiral_tree(make_grid(n)))
    assert xt.depth_arr.max() == n * n - 1
    assert_lifted_folds_match_walks(xt, np.random.default_rng(n))


def test_lifted_folds_match_walks_on_tiles_of_25():
    g = make_grid(25)
    h = plain(g)
    rng = np.random.default_rng(25)
    dups = xedges = 0
    for seed in range(3):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, 800 + seed), h)
        assert_lifted_folds_match_walks(t, rng)
        for tile in g.tile_5x5():
            og, ot = contract(h, t, tile)
            dups += len(og.duplicates)
            xedges += len(ot.xedge_indices)
            assert_lifted_folds_match_walks(ot, rng)
    assert dups and xedges


def test_lifted_folds_match_walks_on_tiles_of_130_to_125():
    g = make_grid(130)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 131), h)
    sg, st_ = contract(h, t, SubgridRef(1, 125, 1, 125))
    assert sg.duplicates and st_.xedge_indices
    rng = np.random.default_rng(125)
    chords = 0
    for tile in sg.host.tile_5x5():
        og, ot = contract(sg, st_, tile)
        chords += assert_lifted_folds_match_walks(ot, rng)
    assert chords


# -- rerouting and winding numbers --------------------------------------------

def test_reroute_keeps_tree_edges_verbatim():
    g = make_grid(5)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    walk = reroute_walk(t, h, 2)
    ring = g.concentric_cycle(2)
    for j in range(len(walk)):
        u, v = walk[j], walk[(j + 1) % len(walk)]
        eid = g.edge_id(u, v)
        assert t.contains_host_edge(eid)
    kept = [e for j, e in enumerate(ring)
            if t.contains_host_edge(g.edge_id(ring[j], ring[(j + 1) % len(ring)]))]
    for v in kept:
        assert v in walk


def test_reroute_layer_error():
    g = make_grid(5)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    with pytest.raises(LayerError):
        reroute_walk(t, h, 3)


def test_winding_ring_examples():
    g = make_grid(5)
    h = plain(g)
    assert winding_number(g.concentric_cycle(1), (3.0, 3.0), h) == 1
    assert winding_number(g.concentric_cycle(2), (0.5, 0.5), h) == 0
    assert winding_number(list(reversed(g.concentric_cycle(1))), (3.25, 3.25),
                          h) == -1
    with pytest.raises(DegeneratePointError):
        winding_number(g.concentric_cycle(1), (2.0, 1.0), h)


def test_winding_rerouted_walks_are_null():
    g = make_grid(25)
    h = plain(g)
    z0 = (12.5, 12.5)
    for seed in (0, 1, 2):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
        for i in (1, 5, 12):
            assert winding_number(reroute_walk(t, h, i), z0, h) == 0
            assert winding_number(g.concentric_cycle(i), z0, h) == 1


def test_winding_walk_through_extra_edges():
    g = make_grid(5)
    host_ids = [g.edge_id((x, y), (x, y + 1)) for x in range(1, 6)
                for y in range(1, 5)]
    host_ids += [g.edge_id((x, 1), (x + 1, 1)) for x in range(2, 5)]
    h = ExpandedGrid(g, [], [((1, 1), (2, 1))])
    t = XSpanningTree(h, host_ids, [0], (5, 1))
    walk = reroute_walk(t, h, 2)
    assert winding_number(walk, (2.5, 2.5), h) == 0


# -- long chords and the lower bound ------------------------------------------

def test_find_long_edge_comb():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    eid = find_long_edge(h, t, 1)
    e = g.edge(eid)
    assert e.a[1] == 25 and e.b[1] == 25
    cyc = t.path_refs(e.a, e.b)
    assert any(11 <= v[1] <= 15 for v in cyc)


def test_find_long_edge_random_suite():
    g = make_grid(25)
    h = plain(g)
    for seed in range(10):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
        for i in range(1, 6):
            eid = find_long_edge(h, t, i)
            assert 0 <= eid < g.num_edges


def test_find_long_edge_input_errors():
    g = make_grid(6)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    with pytest.raises(OutOfRangeError):
        find_long_edge(h, t, 1)
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(comb_tree(g), h)
    with pytest.raises(OutOfRangeError):
        find_long_edge(h, t, 6)


@pytest.mark.parametrize("n", [2, 5, 10, 13])
def test_ring_steps_follow_concentric_cycles(n):
    g = make_grid(n)
    layers = list(range(1, n // 2 + 1))
    ring, u, v = _ring_steps(n, layers)
    expect = []
    for k, i in enumerate(layers):
        cyc = g.concentric_cycle(i)
        expect += [(k, g.vertex_index(a), g.vertex_index(b))
                   for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    assert list(zip(ring.tolist(), u.tolist(), v.tolist())) == expect


def assert_witnesses_match_reference(h, t, sharp=True):
    """find_long_edge on every layer, and lemma_lower_check's witnesses on
    power-of-five sides, against conftest's ring walk."""
    m = h.host.n // 5
    ref = [reference_long_edge(h, t, i) for i in range(1, m + 1)]
    assert None not in ref
    assert [find_long_edge(h, t, i) for i in range(1, m + 1)] == ref
    if sharp:
        assert lemma_lower_check(h, t).witnesses == list(enumerate(ref, 1))


@pytest.mark.parametrize("n", [5, 10, 25])
def test_witnesses_match_reference_uniform(n):
    g = make_grid(n)
    h = plain(g)
    for seed in range(3):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, 900 + seed), h)
        assert_witnesses_match_reference(h, t, sharp=n != 10)


@pytest.mark.parametrize("make", [comb_tree, spiral_tree],
                         ids=["comb", "spiral"])
def test_witnesses_match_reference_comb_and_spiral(make):
    g = make_grid(25)
    h = plain(g)
    assert_witnesses_match_reference(h, XSpanningTree.from_host_tree(make(g), h))


def test_witnesses_match_reference_125():
    g = make_grid(125)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 125), h)
    assert_witnesses_match_reference(h, t)


def test_witnesses_match_reference_130_to_125():
    g = make_grid(130)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 131), h)
    sg, st_ = contract(h, t, SubgridRef(1, 125, 1, 125))
    assert sg.duplicates and st_.xedge_indices
    assert_witnesses_match_reference(sg, st_)


def test_first_failing_layer_raises(monkeypatch):
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 0), h)
    monkeypatch.setattr(
        XSpanningTree, "path_hits",
        lambda self, u, v, flags: np.zeros(np.shape(flags)[:-1] + np.shape(u),
                                           dtype=bool))
    with pytest.raises(CounterexampleError, match="no long chord on C_1 "):
        lemma_lower_check(h, t)
    with pytest.raises(CounterexampleError, match="no long chord on C_3 "):
        find_long_edge(h, t, 3)


def test_long_edges_use_no_lifted_flag_tables():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 1), h)
    lemma_lower_check(h, t)
    assert set(t.tables._lifted) <= {"xmin", "xmax", "ymin", "ymax"}
    assert not hasattr(t.tables, "path_hits")


def test_lemma_check_g5():
    g = make_grid(5)
    h = plain(g)
    for seed in range(5):
        t = XSpanningTree.from_host_tree(random_spanning_tree(g, seed), h)
        rep = lemma_lower_check(h, t)
        assert rep.form == "sharp"
        assert rep.bound == 2
        assert rep.lstar >= 32
        assert len(rep.witnesses) == 1


def test_lemma_check_g25():
    g = make_grid(25)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 42), h)
    rep = lemma_lower_check(h, t)
    assert rep.bound == 100
    assert rep.lstar >= 100
    assert len(rep.tiles) == 25
    assert len(rep.witnesses) == 5
    assert rep.decomposition_lhs == rep.bound
    payload = rep.to_json()
    json.dumps(payload)
    assert payload["bound_num"] == 100 and payload["bound_den"] == 1
    assert all(set(w) == {"i", "edge_id"} for w in payload["witnesses"])


def test_general_form_g7():
    g = make_grid(7)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 3), h)
    rep = lemma_lower_check(h, t)
    assert rep.form == "general"
    assert rep.bound == Fraction(2, 625) * 49
    assert rep.sub_report is not None
    assert rep.sub_report.n == 5
    assert rep.lstar >= rep.sub_report.lstar


def test_lemma_check_trivial_sizes():
    g = make_grid(2)
    h = plain(g)
    t = XSpanningTree.from_host_tree(random_spanning_tree(g, 0), h)
    rep = lemma_lower_check(h, t)
    assert rep.bound == 0


# -- file format ---------------------------------------------------------------

def test_expanded_file_roundtrip(tmp_path):
    g = make_grid(5)
    h = ExpandedGrid(g, [Duplicate(0, (1, 2), 0), Duplicate(1, (1, 2), 1)],
                     [((1, 1), ("d", 0)), (("d", 0), ("d", 1)),
                      (("d", 1), (1, 3))])
    path = tmp_path / "h.txt"
    h.to_file(path)
    text = path.read_text().splitlines()
    assert text[0] == "n 5"
    assert text[1] == "dup 0 1 2 0"
    assert "xedge h 1 1 d 0" in text
    h2 = ExpandedGrid.from_file(path)
    assert h2.host.n == 5
    assert h2.duplicates == h.duplicates
    assert h2.xedges == h.xedges
    assert h2.xedge_lengths == h.xedge_lengths


@pytest.mark.parametrize("text,where,expected", [
    ("", "1", "missing line 'n <side>'"),
    ("n 5\ndup 1 2\n", "2", "expected 'dup <id> <x> <y> <slot>', got 'dup 1 2'"),
    ("n 5\nxedge h 1 1\n", "2",
     "expected 'xedge <endpoint> <endpoint>', got 'xedge h 1 1'"),
    ("n 5\nxedge h 1 1 d\n", "2",
     "expected 'xedge h <x> <y> d <id>', got 'xedge h 1 1 d'"),
    ("n 5\n\nxedge h 1 q d 0\n", "3",
     "expected 'xedge h <x> <y> d <id>', got 'xedge h 1 q d 0'"),
    ("n 5\nxedge d 0 d 1 2\n", "2",
     "expected 'xedge d <id> d <id>', got 'xedge d 0 d 1 2'"),
    ("n five\n", "1", "expected 'n <side>', got 'n five'"),
    ("n 5\ndup 0 1 2 x\n", "2",
     "expected 'dup <id> <x> <y> <slot>', got 'dup 0 1 2 x'"),
    ("n 5\nloop 1\n", "2", "unknown record 'loop'"),
    ("n 5\ndup 3 1 1 0\n", "2", "expected duplicate id 0, got 3"),
    ("n 5\ndup 0 1 1 0\n\ndup 2 1 2 0\n", "4",
     "expected duplicate id 1, got 2"),
    ("n 5\ndup 0 1 1 0\ndup 0 1 2 0\n", "3",
     "expected duplicate id 1, got 0"),
], ids=["empty", "truncated_dup", "truncated_xedge", "truncated_endpoint",
        "non_integer_endpoint", "extra_token", "non_integer_side",
        "non_integer_slot", "unknown_record", "first_dup_id_not_0",
        "dup_id_skipped", "dup_id_repeated"])
def test_expanded_file_malformed(tmp_path, text, where, expected):
    path = tmp_path / "h.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        ExpandedGrid.from_file(path)
    assert str(err.value) == f"{path}:{where}: {expected}"
    assert isinstance(err.value, MalformedFileError)
    assert err.value.lineno == int(where)
