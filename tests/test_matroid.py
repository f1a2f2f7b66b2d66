import random

import pytest

from conftest import (comb_tree, reference_echelon, reference_gf2_rank,
                      rows_plus_column_tree, spiral_tree)
from gridcycle.construction import build_tree
from gridcycle.errors import EmptyMatroidError, MalformedFileError
from gridcycle.grid import make_grid
from gridcycle.matroid import (EchelonMatrix, column_cycle_check,
                               echelon_representation, gf2_rank, sparsity)
from gridcycle.search import random_spanning_tree
from gridcycle.tree import SpanningTree


def test_shape_and_identity_block_g2():
    g = make_grid(2)
    t = SpanningTree.from_edges(g, [0, 1, 2], (2, 1))
    m = echelon_representation(g, t)
    assert (m.n_rows, m.n_cols) == (3, 4)
    chord = 3
    assert len(m.column_support(chord)) == 3
    for row, eid in enumerate(sorted([0, 1, 2])):
        assert m.column_support(eid) == [row]


def test_t3_supports():
    g = make_grid(3)
    t = rows_plus_column_tree(g, 2)
    m = echelon_representation(g, t)
    assert (m.n_rows, m.n_cols) == (8, 12)
    for chord in t.chord_ids():
        assert len(m.column_support(int(chord))) == 3
    assert m.nnz == 8 + 4 * 3


def test_sparsity_formula_examples():
    g2 = make_grid(2)
    t2 = SpanningTree.from_edges(g2, [0, 1, 2], (2, 1))
    assert sparsity(g2, t2) == 6
    g3 = make_grid(3)
    assert sparsity(g3, rows_plus_column_tree(g3, 2)) == 8 + 16 - 4
    g4 = make_grid(4)
    t4 = build_tree(4)
    # 15 + L - 9 with the measured L(T_4) = 42
    assert sparsity(g4, t4) == 48
    assert sparsity(g4, t4) == echelon_representation(g4, t4).nnz


def test_sparsity_formula_equals_direct_count_random():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = make_grid(n)
        t = random_spanning_tree(g, rng.randrange(2 ** 31))
        m = echelon_representation(g, t)
        assert m.nnz == sparsity(g, t)


def test_full_row_rank():
    for n in (2, 3, 5, 8):
        g = make_grid(n)
        t = random_spanning_tree(g, n)
        m = echelon_representation(g, t)
        assert gf2_rank(m) == n * n - 1


def test_chord_columns_are_cycles():
    g = make_grid(4)
    t = comb_tree(g)
    m = echelon_representation(g, t)
    for chord in t.chord_ids():
        assert column_cycle_check(g, m, t, int(chord))


def test_empty_matroid():
    g = make_grid(1)
    t = SpanningTree.from_edges(g, [], (1, 1))
    with pytest.raises(EmptyMatroidError):
        echelon_representation(g, t)
    with pytest.raises(EmptyMatroidError):
        sparsity(g, t)


def test_export_roundtrip(tmp_path):
    g = make_grid(3)
    t = rows_plus_column_tree(g, 2)
    m = echelon_representation(g, t)
    path = tmp_path / "m.txt"
    m.to_file(path)
    head = path.read_text().splitlines()[0]
    assert head == "8 12 20"
    m2 = EchelonMatrix.from_file(path)
    assert m2 == m


@pytest.mark.parametrize("text,where,expected", [
    ("", "1", "expected '<rows> <cols> <nnz>', got ''"),
    ("8 12\n", "1", "expected '<rows> <cols> <nnz>', got '8 12'"),
    ("2 3 2\n0 0\n1\n", "3", "expected '<row> <col>', got '1'"),
    ("2 3 2\n0 0\n1 x\n", "3", "expected '<row> <col>', got '1 x'"),
    ("2 3 two\n", "1", "expected '<rows> <cols> <nnz>', got '2 3 two'"),
    ("2 3 2\n0 0\n\n5 1\n", "4", "entry (5, 1) outside the 2 x 3 matrix"),
    ("2 3 1\n-1 0\n", "2", "entry (-1, 0) outside the 2 x 3 matrix"),
    ("2 3 2\n1 -2\n0 0\n", "2", "entry (1, -2) outside the 2 x 3 matrix"),
], ids=["empty", "truncated_header", "truncated_entry", "non_integer_entry",
        "non_integer_header", "row_past_end", "negative_row",
        "negative_col"])
def test_matrix_file_malformed(tmp_path, text, where, expected):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(MalformedFileError) as err:
        EchelonMatrix.from_file(path)
    assert str(err.value) == f"{path}:{where}: {expected}"


def test_matrix_file_last_row_and_column_load(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 3 2\n0 0\n1 2\n")
    want = EchelonMatrix(2, 3, ((0, 0), (1, 2)))
    assert EchelonMatrix.from_file(path) == want


def random_matrix(rng: random.Random) -> EchelonMatrix:
    """A GF(2) matrix of 1 to 40 rows and columns whose rows are zero,
    copies or xor sums of earlier rows, or random; a row's entries may
    repeat a position, which cancels it."""
    n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = [] if kind < 0.1 else [rng.randrange(n_cols)]
        elif kind < 0.25:
            row = list(rng.choice(rows))
        elif kind < 0.5:
            row = [c for r in rng.sample(rows, rng.randint(1, len(rows)))
                   for c in r]
        else:
            row = [rng.randrange(n_cols)
                   for _ in range(rng.randint(1, 2 * n_cols))]
        rows.append(row)
    entries = [(r, c) for r, row in enumerate(rows) for c in row]
    rng.shuffle(entries)
    return EchelonMatrix(n_rows, n_cols, tuple(entries))


def test_gf2_rank_matches_reference_random():
    rng = random.Random(14)
    deficient = 0
    for _ in range(400):
        m = random_matrix(rng)
        rank = gf2_rank(m)
        assert rank == reference_gf2_rank(m)
        deficient += rank < min(m.n_rows, m.n_cols)
    assert deficient >= 100


def echelon_trees(n):
    g = make_grid(n)
    return g, [build_tree(n), comb_tree(g), spiral_tree(g),
               random_spanning_tree(g, n)]


@pytest.mark.parametrize("n", range(2, 13))
def test_gf2_rank_matches_reference_echelon(n):
    g, trees = echelon_trees(n)
    for t in trees[1:]:
        m = echelon_representation(g, t)
        assert gf2_rank(m) == reference_gf2_rank(m) == n * n - 1


@pytest.mark.parametrize("n", range(2, 17))
def test_echelon_matches_reference(n):
    g, trees = echelon_trees(n)
    for t in trees:
        assert echelon_representation(g, t) == reference_echelon(g, t)
