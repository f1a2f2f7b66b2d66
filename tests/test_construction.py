from decimal import Decimal

import numpy as np
import pytest

from conftest import (comb_tree, explicit_cycle_length, reference_emit,
                      rows_plus_column_tree)
from gridcycle.construction import (ConstructionReport, RECORDED_SMALL_VALUES,
                                    build_tree, crossing_chords,
                                    crossing_cycle_cap, crossing_edge_count,
                                    log2_bound, validate_construction)
from gridcycle.errors import (ConstructionInvalidError, InvalidSizeError,
                              OutOfRangeError)
from gridcycle.grid import make_grid
from gridcycle.tree import SpanningTree


def test_base_cases_exact():
    assert build_tree(1).max_depth() == 0
    assert build_tree(2).total_length().L_total == 4
    assert build_tree(3).total_length().L_total == 16


def test_build_tree_matches_reference_emit():
    # The affine-copy builder and the per-edge recursion give the same
    # edge-id set at every size up to 300 and at 1024.
    for n in [*range(1, 301), 1024]:
        assert np.array_equal(build_tree(n).tree_edge_ids(),
                              np.sort(reference_emit(n))), n


def test_t2_is_interior_rooted_path():
    t = build_tree(2)
    g = t.host
    assert t.root == (2, 1)
    assert set(t.tree_edge_ids().tolist()) == {
        g.edge_id((1, 1), (2, 1)), g.edge_id((2, 1), (2, 2)),
        g.edge_id((2, 2), (1, 2))}
    assert t.max_depth() == 2


def test_t3_is_rows_plus_central_column():
    t = build_tree(3)
    ref = rows_plus_column_tree(make_grid(3), 2)
    assert set(t.tree_edge_ids().tolist()) == set(ref.tree_edge_ids().tolist())


def test_t4_total_pinned():
    # A 4-grid tree has 9 chords; every fundamental cycle is even and at
    # least 4 long, so any total is even and at least 36 (the exhaustive
    # minimum over all 100352 trees is 38).  The recursive tree measures 42;
    # its tree-path total, one less per chord, is 33.
    t = build_tree(4)
    g = t.host
    # Even-n rule with h = 2: bottom path, column x=3 up to row 3, the three
    # joining edges, T_2 on both left quadrants, a mirrored T_2 on the
    # top-right quadrant and the single vertex T_1 at (4, 2).
    assert set(t.tree_edge_ids().tolist()) == {
        g.edge_id((3, 1), (4, 1)),
        g.edge_id((3, 1), (3, 2)), g.edge_id((3, 2), (3, 3)),
        g.edge_id((2, 1), (3, 1)), g.edge_id((2, 3), (3, 3)),
        g.edge_id((3, 2), (4, 2)),
        g.edge_id((1, 1), (2, 1)), g.edge_id((2, 1), (2, 2)),
        g.edge_id((1, 2), (2, 2)),
        g.edge_id((1, 3), (2, 3)), g.edge_id((2, 3), (2, 4)),
        g.edge_id((1, 4), (2, 4)),
        g.edge_id((3, 3), (4, 3)), g.edge_id((3, 3), (3, 4)),
        g.edge_id((3, 4), (4, 4))}
    stats = t.total_length()
    assert stats.L_total == 42
    assert sorted(stats.lengths.tolist()) == [4, 4, 4, 4, 4, 4, 4, 6, 8]
    chords = t.chord_ids()
    assert sum(explicit_cycle_length(t, int(e)) for e in chords) == 42
    assert len(chords) == 9
    assert stats.L_total - len(chords) == 33


def test_t5_golden_cross_checked():
    t = build_tree(5)
    stats = t.total_length()
    assert stats.L_total == 80
    explicit = sum(explicit_cycle_length(t, int(e)) for e in t.chord_ids())
    assert explicit == 80


def test_totals_match_explicit_walk_oracle():
    from gridcycle.search import _explicit_totals
    for n in (6, 8, 12):
        t = build_tree(n)
        stats = t.total_length()
        ids = [int(e) for e in t.tree_edge_ids()]
        assert _explicit_totals(t.host, ids) == (stats.L_total, stats.P_total)


# Measured totals of the construction, frozen as regression pins.
GOLDEN_TOTALS = {2: 4, 3: 16, 4: 42, 5: 80, 8: 314, 16: 1974, 25: 6188,
                 32: 11166, 64: 58902, 125: 287828, 128: 295918}


def test_golden_totals():
    for n, expect in GOLDEN_TOTALS.items():
        assert build_tree(n).total_length().L_total == expect, n


def test_root_position():
    for n in (1, 2, 3, 4, 5, 6, 9, 16):
        assert build_tree(n).root == (n, 1)


def test_depth_bound():
    for n in list(range(1, 20)) + [25, 31, 32, 64, 100, 125]:
        t = build_tree(n)
        assert t.max_depth() <= 2 * (n - 1), n


def test_determinism():
    a = build_tree(13).tree_edge_ids().tolist()
    b = build_tree(13).tree_edge_ids().tolist()
    assert a == b


def test_invalid_size():
    with pytest.raises(InvalidSizeError):
        build_tree(0)
    with pytest.raises(InvalidSizeError):
        build_tree(-2)


@pytest.mark.parametrize("n,expect", [(4, 6), (5, 12), (6, 12), (7, 20),
                                      (8, 18), (16, 42)])
def test_crossing_edge_count(n, expect):
    formula = 4 * n - 8 if n % 2 else 3 * n - 6
    assert expect == formula
    assert crossing_edge_count(n) == expect


def test_crossing_chords_need_side_4():
    with pytest.raises(OutOfRangeError, match="below side 4, got 3"):
        crossing_chords(build_tree(3))


def test_crossing_cycle_caps():
    for n in range(4, 20):
        t = build_tree(n)
        cap = crossing_cycle_cap(n)
        for eid in crossing_chords(t):
            assert t.cycle_length(int(eid)) <= cap


def test_bound_chain_small():
    for n in range(2, 33):
        t = build_tree(n)
        stats = t.total_length()
        assert Decimal(stats.L_total) <= log2_bound(n, 10 * n * n)
        avg = stats.average
        assert Decimal(avg.numerator) <= log2_bound(n, 40) * avg.denominator


def test_validate_passes_for_t8():
    rep = validate_construction(build_tree(8))
    assert isinstance(rep, ConstructionReport)
    assert rep.max_depth <= 14


def test_validate_t1_vacuous():
    rep = validate_construction(build_tree(1))
    assert rep.L_total == 0


def test_validate_reports_depth_violation():
    g = make_grid(3)
    snake = [g.edge_id((3, 1), (2, 1)), g.edge_id((2, 1), (1, 1)),
             g.edge_id((1, 1), (1, 2)), g.edge_id((1, 2), (2, 2)),
             g.edge_id((2, 2), (3, 2)), g.edge_id((3, 2), (3, 3)),
             g.edge_id((3, 3), (2, 3)), g.edge_id((2, 3), (1, 3))]
    t = SpanningTree.from_edges(g, snake, (3, 1))
    with pytest.raises(ConstructionInvalidError) as err:
        validate_construction(t)
    assert err.value.clause == "c"


def test_validate_reports_wrong_root():
    g = make_grid(2)
    t = SpanningTree.from_edges(g, [0, 2, 3], (1, 1))
    with pytest.raises(ConstructionInvalidError) as err:
        validate_construction(t)
    assert err.value.clause == "b"


def test_validate_small_value_clause_fires_for_n4():
    # The construction matches the recorded cycle totals for n = 1..4.
    for n in range(1, 5):
        rep = validate_construction(build_tree(n))
        assert rep.L_total == RECORDED_SMALL_VALUES[n]
    assert RECORDED_SMALL_VALUES[4] == 42
    # The comb tree has root (4, 1), depth 6 = 2(n-1) and L = 54 <= the
    # 10 n^2 log2 n bound, so it passes clauses (a)-(d) and fails only (e).
    comb = comb_tree(make_grid(4))
    assert comb.root == (4, 1)
    assert comb.max_depth() == 6
    assert comb.total_length().L_total == 54
    with pytest.raises(ConstructionInvalidError) as err:
        validate_construction(comb)
    assert err.value.clause == "e"


def test_svg_emission(tmp_path):
    from gridcycle.construction import write_svg
    path = tmp_path / "t5.svg"
    write_svg(build_tree(5), path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") == 24
