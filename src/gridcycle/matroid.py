"""Echelon-form GF(2) representation of a grid's graphic matroid.

Rows are indexed by the tree edges of a chosen spanning tree (in canonical
edge-id order) and columns by all host edges, so the tree-edge columns form
an identity block and each chord column is the incidence vector of the tree
edges on its fundamental cycle.  The number of ones in this representation
is ``(rank) + sum(cycle length - 1)`` over chords, which ties the matrix
sparsity to the tree's total fundamental-cycle length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatroidError, MalformedFileError
from .grid import GridGraph
from .tree import SpanningTree, record_ints, tree_path


@dataclass(frozen=True)
class EchelonMatrix:
    """Sparse GF(2) matrix as sorted (row, col) positions of its ones."""

    n_rows: int
    n_cols: int
    entries: tuple

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def column_support(self, col: int):
        return [r for r, c in self.entries if c == col]

    def to_file(self, path) -> None:
        """Coordinate text format: header "rows cols nnz", one "row col" pair
        per 1, 0-based, in row-major order."""
        with open(path, "w") as fh:
            fh.write(f"{self.n_rows} {self.n_cols} {self.nnz}\n")
            for r, c in self.entries:
                fh.write(f"{r} {c}\n")

    @staticmethod
    def from_file(path) -> "EchelonMatrix":
        """Read a matrix file.  A malformed line, an entry outside
        [0, rows) x [0, cols), or an entry count other than the header's,
        raises :class:`MalformedFileError` naming the file and the line
        number (the header's for the count)."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        n_rows, n_cols, nnz = record_ints(path, 1, (lines or [""])[0],
                                          "<rows> <cols> <nnz>")
        entries = []
        for i, ln in enumerate(lines[1:], 2):
            if not ln.strip():
                continue
            r, c = record_ints(path, i, ln, "<row> <col>")
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise MalformedFileError(
                    path, i, f"entry ({r}, {c}) outside the {n_rows} x "
                    f"{n_cols} matrix")
            entries.append((r, c))
        if len(entries) != nnz:
            raise MalformedFileError(
                path, 1, f"expected {nnz} entries, got {len(entries)}")
        return EchelonMatrix(n_rows, n_cols, tuple(entries))


def echelon_representation(g: GridGraph, t: SpanningTree) -> EchelonMatrix:
    """Build the echelon representation for tree t of grid g.

    Chord columns are derived from explicitly materialized fundamental
    cycles (:func:`tree_path` walks, as in ``fundamental_cycle``),
    independent of the O(1) length machinery; one vectorized ``edge_ids``
    call names the tree edges of every consecutive pair on them.
    """
    if g.n < 2:
        raise EmptyMatroidError("the 1-grid has no edges to represent")
    tree_ids = t.tree_edge_ids()
    row_of = np.full(g.num_edges, -1, dtype=np.int64)
    row_of[tree_ids] = np.arange(len(tree_ids))
    chords = t.chord_ids()
    ua, ub = g.edge_endpoint_indices(chords)
    nodes, lens = [], []
    for a, b in zip(ua.tolist(), ub.tolist()):
        path = tree_path(t.parent_idx, t.depth_arr, a, b)
        nodes += path
        lens.append(len(path))
    nodes, lens = np.array(nodes), np.array(lens)
    # Every node but the last of its path starts one step of that path.
    step = np.ones(len(nodes), dtype=bool)
    step[np.cumsum(lens) - 1] = False
    i = np.flatnonzero(step)
    rows = np.concatenate([row_of[tree_ids],
                           row_of[g.edge_ids(nodes[i], nodes[i + 1])]])
    cols = np.concatenate([tree_ids, np.repeat(chords, lens - 1)])
    order = np.lexsort((cols, rows))
    # One int object per index value, shared by every entry that holds it,
    # keeps the entry tuples at about half the memory of fresh ints.
    ints = list(range(g.num_edges))
    rows = list(map(ints.__getitem__, rows[order].tolist()))
    cols = list(map(ints.__getitem__, cols[order].tolist()))
    return EchelonMatrix(len(tree_ids), g.num_edges, tuple(zip(rows, cols)))


def sparsity(g: GridGraph, t: SpanningTree) -> int:
    """Number of ones of the echelon representation, via the identity
    (n^2 - 1) + L(t, g) - (n - 1)^2."""
    if g.n < 2:
        raise EmptyMatroidError("the 1-grid has no edges to represent")
    n = g.n
    L = t.total_length().L_total
    return (n * n - 1) + L - (n - 1) ** 2


def gf2_rank(m: EchelonMatrix) -> int:
    """GF(2) rank of any matrix: each bit-packed row is reduced by a basis
    of earlier rows kept under their highest set bits, until it is zero or
    has a highest bit no basis row has and joins the basis; the rank is the
    basis's size."""
    rows = [0] * m.n_rows
    for r, c in m.entries:
        rows[r] ^= 1 << c
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = row
                break
            row ^= b
    return len(basis)


def column_cycle_check(g: GridGraph, m: EchelonMatrix, t: SpanningTree,
                       chord: int) -> bool:
    """True iff the chord column plus its supporting tree-edge unit columns
    selects an even-degree edge set (a member of the cycle space)."""
    tree_ids = t.tree_edge_ids()
    edge_set = [chord] + tree_ids[m.column_support(chord)].tolist()
    deg = {}
    for eid in edge_set:
        e = g.edge(eid)
        for v in (e.a, e.b):
            deg[v] = deg.get(v, 0) + 1
    return all(d % 2 == 0 for d in deg.values())
