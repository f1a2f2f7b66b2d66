import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcycle.search as search
from conftest import (comb_tree, explicit_cycle_length, reference_enumerate,
                      reference_local_search, reference_wilson_edges,
                      spiral_tree)
from gridcycle.cli import main
from gridcycle.construction import build_tree
from gridcycle.errors import CounterexampleError, NotAChordError, TooLargeError
from gridcycle.grid import make_grid
from gridcycle.search import (SearchBudget, count_spanning_trees,
                              enumerate_spanning_trees, local_search,
                              min_total_length, random_spanning_tree,
                              swap_deltas)
from gridcycle.tree import SpanningTree, cycle_box


def test_counts():
    assert count_spanning_trees(make_grid(1)) == 1
    assert count_spanning_trees(make_grid(2)) == 4
    assert count_spanning_trees(make_grid(3)) == 192
    assert count_spanning_trees(make_grid(4)) == 100352


def test_enumeration_matches_count_small():
    for n in (1, 2, 3):
        g = make_grid(n)
        seen = set()
        total = enumerate_spanning_trees(g, seen.add)
        assert total == count_spanning_trees(g)
        assert len(seen) == total


def test_enumeration_yields_valid_trees():
    g = make_grid(3)

    def check(ids):
        t = SpanningTree.from_edges(g, ids, (3, 1))
        assert t.max_depth() >= 1

    enumerate_spanning_trees(g, check)


def test_enumeration_declined_above_limit():
    with pytest.raises(TooLargeError):
        enumerate_spanning_trees(make_grid(5), lambda ids: None)
    with pytest.raises(TooLargeError):
        min_total_length(make_grid(5))


def test_min_g2():
    rep = min_total_length(make_grid(2))
    assert rep.min_L == 4
    assert rep.trees_scanned == 4
    assert len(rep.witness_edge_ids) == 3


def test_min_g3_is_16():
    rep = min_total_length(make_grid(3))
    assert rep.min_L == 16
    assert rep.min_P == 16
    t = SpanningTree.from_edges(make_grid(3), rep.witness_edge_ids, (3, 1))
    assert t.total_length().L_total == 16


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_order_matches_reference(n):
    g = make_grid(n)
    got, want = [], []
    assert enumerate_spanning_trees(g, got.append) == len(got)
    assert reference_enumerate(g, want.append) == len(want)
    assert got == want


# (trees scanned, min L, min P, witness) of the exhaustive minimum; the
# witness is the first minimum-L tree in enumeration order.
MINIMUM_REPORTS = {
    1: (1, 0, 0, ()),
    2: (4, 4, 4, (0, 1, 2)),
    3: (192, 16, 16, (0, 1, 2, 3, 4, 5, 7, 10)),
    4: (100352, 38, 38, (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 17, 21, 22)),
}


@pytest.mark.parametrize("n", sorted(MINIMUM_REPORTS))
def test_minimum_report_pinned(n):
    rep = min_total_length(make_grid(n))
    assert rep.n == n
    assert (rep.trees_scanned, rep.min_L, rep.min_P,
            rep.witness_edge_ids) == MINIMUM_REPORTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_endpoint_table_matches_edges(n):
    g = make_grid(n)
    ends, xs, ys = search._endpoint_table(g)
    assert len(ends) == g.num_edges
    assert len(xs) == len(ys) == g.num_vertices
    for eid, (a, b) in enumerate(ends):
        e = g.edge(eid)
        assert (xs[a], ys[a]) == e.a
        assert (xs[b], ys[b]) == e.b
    assert list(zip(xs, ys)) == g.vertices()


def chordwise_totals(t):
    """(L, P) summed chord by chord: lengths from the dictionary walk in
    conftest, perimeters from the box of the traced fundamental cycle."""
    chords = t.chord_ids().tolist()
    return (sum(explicit_cycle_length(t, e) for e in chords),
            sum(cycle_box(t.fundamental_cycle(e)).perimeter for e in chords))


def assert_oracle_matches(t):
    ids = t.tree_edge_ids().tolist()
    assert search._explicit_totals(t.host, ids) == chordwise_totals(t)


@pytest.mark.parametrize("n", [6, 8, 12, 16, 25])
def test_explicit_totals_construction(n):
    assert_oracle_matches(build_tree(n))


@pytest.mark.parametrize("n", range(2, 13))
def test_explicit_totals_uniform(n):
    for seed in (0, 1, 2):
        assert_oracle_matches(random_spanning_tree(make_grid(n), seed))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 25])
def test_explicit_totals_comb_and_spiral(n):
    g = make_grid(n)
    assert_oracle_matches(comb_tree(g))
    assert_oracle_matches(spiral_tree(g))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_explicit_totals_property(n, seed):
    assert_oracle_matches(random_spanning_tree(make_grid(n), seed))


def test_wilson_deterministic():
    g = make_grid(6)
    a = random_spanning_tree(g, 123).tree_edge_ids().tolist()
    b = random_spanning_tree(g, 123).tree_edge_ids().tolist()
    c = random_spanning_tree(g, 124).tree_edge_ids().tolist()
    assert a == b
    assert a != c


# Edge ids of Wilson trees: the count and the sha256 of the ids joined by
# commas, recorded from the sampler before it took its edge ids from
# ``GridGraph.edge_ids``.  The walk and its random stream decide the tree.
WILSON_PINS = {
    (8, 0): (63, "b377994826f90944af7a75ad6d4289da6f077bb53715ad45292217d8451c1693"),
    (32, 5): (1023, "655ee285dcb6614a06c0ab7f764706bbf9948ec0e9bd256be8be2d99c46aaf5e"),
    (125, 1001): (15624, "c6a6d704634450c2f7885d45a3d4861e70eb18e180d66c12e683beeac2ea1e39"),
}


@pytest.mark.parametrize("n,seed", list(WILSON_PINS))
def test_wilson_edge_ids_pinned(n, seed):
    ids = random_spanning_tree(make_grid(n), seed).tree_edge_ids().tolist()
    digest = hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()
    assert (len(ids), digest) == WILSON_PINS[n, seed]


def test_wilson_draw_matches_choice():
    """The walk draws a neighbour the way CPython's ``Random.choice`` does
    (``_randbelow_with_getrandbits``): len(nb).bit_length() bits, drawn
    again until they fall below len(nb).  A Python whose ``choice``
    consumes the stream otherwise fails here, not by changing trees."""
    for seed in range(300):
        for k in (2, 3, 4):
            a, b = random.Random(seed), random.Random(seed)
            seq = list(range(10, 10 + k))
            for _ in range(40):
                r = b.getrandbits(k.bit_length())
                while r >= k:
                    r = b.getrandbits(k.bit_length())
                assert a.choice(seq) == seq[r]
            assert a.getstate() == b.getstate()


def test_shuffle_matches_random_shuffle():
    """``_shuffle`` draws swap partners as CPython's ``Random.shuffle``
    does, so local search keeps its chord orders and its random stream.
    A Python whose ``shuffle`` consumes the stream otherwise fails here."""
    cases = [(length, length) for length in range(1101)]
    cases += [(length, seed) for seed in range(2000, 2300)
              for length in range(18)]
    for length, seed in cases:
        a, b = random.Random(seed), random.Random(seed)
        want, got = list(range(length)), list(range(length))
        a.shuffle(want)
        search._shuffle(got, b.getrandbits)
        assert got == want
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20])
def test_wilson_matches_choice_reference(n):
    g = make_grid(n)
    for seed in range(12):
        ids = random_spanning_tree(g, seed).tree_edge_ids().tolist()
        assert ids == reference_wilson_edges(g, seed)


def test_wilson_single_vertex():
    t = random_spanning_tree(make_grid(1), 0)
    assert t.max_depth() == 0


def test_wilson_peak_memory_per_vertex():
    # One draw on the 256-grid under tracemalloc, after a warm-up draw.
    # Shared offset tuples and byte-sized choices keep it near 88 bytes per
    # vertex, most of it the int64 temporaries of GridGraph.edge_ids; a
    # Python list of neighbour ints per vertex takes about 307.
    g = make_grid(256)
    random_spanning_tree(g, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        random_spanning_tree(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / g.num_vertices <= 120


def test_wilson_uniform_g2():
    g = make_grid(2)
    counts = Counter()
    for seed in range(10_000):
        t = random_spanning_tree(g, seed)
        counts[tuple(sorted(t.tree_edge_ids().tolist()))] += 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / 10_000 - 0.25) <= 0.02


def test_wilson_uniform_g3():
    g = make_grid(3)
    samples = 100_000
    counts = Counter()
    for seed in range(samples):
        t = random_spanning_tree(g, seed)
        counts[tuple(sorted(t.tree_edge_ids().tolist()))] += 1
    assert len(counts) == 192
    mean = samples / 192
    sigma = math.sqrt(samples * (1 / 192) * (1 - 1 / 192))
    worst = max(abs(c - mean) for c in counts.values())
    assert worst <= 4 * sigma


def test_local_search_g2_no_improvement():
    g = make_grid(2)
    t0 = SpanningTree.from_edges(g, [0, 1, 2], (2, 1))
    res = local_search(g, t0, SearchBudget(max_trees=100, seed=1))
    assert res.L == 4
    assert res.local_optimum
    assert not res.budget_exhausted


def test_local_search_improves_comb_g8():
    g = make_grid(8)
    t0 = comb_tree(g)
    start = t0.total_length().L_total
    res = local_search(g, t0, SearchBudget(max_trees=400, max_seconds=120,
                                           seed=3))
    assert res.L < start
    rebuilt = SpanningTree.from_edges(g, [int(e) for e in
                                          res.tree.tree_edge_ids()], res.tree.root)
    assert rebuilt.total_length().L_total == res.L


def test_local_search_never_increases_from_constructed_tree():
    g = make_grid(8)
    t0 = build_tree(8)
    start = t0.total_length().L_total
    res = local_search(g, t0, SearchBudget(max_trees=200, max_seconds=60,
                                           seed=7))
    assert res.L <= start


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_trees=0)


UNLIMITED = 10 ** 9


def outcome(res):
    return (res.tree.tree_edge_ids().tolist(), res.L, res.evaluations,
            res.budget_exhausted, res.local_optimum)


def assert_matches_reference(n, tree_seed, search_seed, max_trees):
    g = make_grid(n)
    t0 = random_spanning_tree(g, tree_seed)
    budget = SearchBudget(max_trees=max_trees, max_seconds=1e9,
                          seed=search_seed)
    res = local_search(g, t0, budget)
    assert outcome(res) == outcome(reference_local_search(g, t0, budget))
    return res


@pytest.mark.parametrize("n,seeds", [(2, (0, 1, 2)), (3, (0, 1, 2, 3)),
                                     (4, (0, 1, 2)), (5, (0, 1, 2)),
                                     (8, (0, 1)), (16, (0, 1))])
def test_local_search_matches_reference_unlimited(n, seeds):
    for seed in seeds:
        res = assert_matches_reference(n, seed, 100 + seed, UNLIMITED)
        assert res.local_optimum and not res.budget_exhausted


def test_local_search_matches_reference_budgets_mid_cycle():
    # Every budget from 1 to 80 on a 5-grid search of about 200
    # evaluations ends mid-cycle, at a cycle end or right after a move.
    for max_trees in range(1, 81):
        res = assert_matches_reference(5, 0, 100, max_trees)
        assert res.budget_exhausted and res.evaluations == max_trees
    for n, max_trees in ((8, 57), (8, 333), (16, 150)):
        assert_matches_reference(n, 7, 8, max_trees)


def test_local_search_budget_ending_at_last_cycle_end():
    g = make_grid(6)
    t0 = random_spanning_tree(g, 4)
    full = local_search(g, t0, SearchBudget(max_trees=UNLIMITED, seed=9))
    assert full.local_optimum
    # The final pass over all chords scores every cycle and finds nothing,
    # so a budget of exactly its evaluations still reaches the optimum.
    res = assert_matches_reference(6, 4, 9, full.evaluations)
    assert res.local_optimum and not res.budget_exhausted
    assert outcome(res) == outcome(full)
    res = assert_matches_reference(6, 4, 9, full.evaluations - 1)
    assert res.budget_exhausted and not res.local_optimum


def test_local_search_matches_reference_from_spiral():
    g = make_grid(6)
    t0 = spiral_tree(g)
    budget = SearchBudget(max_trees=UNLIMITED, max_seconds=1e9, seed=3)
    res = local_search(g, t0, budget)
    assert outcome(res) == outcome(reference_local_search(g, t0, budget))
    assert res.local_optimum and res.L < t0.total_length().L_total


def test_local_search_time_budget_checked_before_first_chord():
    g = make_grid(8)
    res = local_search(g, comb_tree(g), SearchBudget(max_trees=UNLIMITED,
                                                     max_seconds=1e-9))
    assert res.budget_exhausted and res.evaluations == 0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       max_trees=st.integers(1, 300))
def test_local_search_matches_reference_property(n, seed, max_trees):
    assert_matches_reference(n, seed, seed + 1, max_trees)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_swap_deltas_match_explicit_walks(n):
    g = make_grid(n)

    def explicit_total(t):
        return sum(explicit_cycle_length(t, int(c)) for c in t.chord_ids())

    # Two uniform trees, then the deepest trees: the spiral path (depth
    # n^2 - 1) and the comb, whose cycles run down and up whole columns.
    for t in (random_spanning_tree(g, 0), random_spanning_tree(g, 1),
              spiral_tree(g), comb_tree(g)):
        cur_L = explicit_total(t)
        chords = t.chord_ids().tolist()
        for e in chords[::max(1, len(chords) // 4)]:
            cycle = t.fundamental_cycle(e)
            deltas = swap_deltas(t, e)
            assert len(deltas) == len(cycle) - 1
            for j, delta in enumerate(deltas.tolist()):
                f = g.edge_id(cycle[j], cycle[j + 1])
                ids = set(t.tree_edge_ids().tolist()) - {f} | {e}
                swapped = SpanningTree.from_edges(g, ids, t.root)
                assert cur_L + delta == explicit_total(swapped)


def test_swap_deltas_rejects_tree_edge():
    t = build_tree(4)
    with pytest.raises(NotAChordError):
        swap_deltas(t, int(t.tree_edge_ids()[0]))


def test_local_search_wrong_delta_is_a_counterexample(monkeypatch, capsys):
    real = search._swap_deltas
    monkeypatch.setattr(search, "_swap_deltas",
                        lambda layout, e: real(layout, e) - 1000)
    g = make_grid(5)
    with pytest.raises(CounterexampleError, match="predicted"):
        local_search(g, comb_tree(g), SearchBudget(seed=1))
    code = main(["search", "--n", "5", "--trees", "1",
                 "--budget-seconds", "5"])
    assert code == 3
    assert capsys.readouterr().err.startswith("counterexample: ")
