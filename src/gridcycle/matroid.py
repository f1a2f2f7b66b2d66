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

from .errors import EmptyMatroidError, MalformedFileError
from .grid import GridGraph
from .tree import SpanningTree, record_ints


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
        """Read a matrix file.  A malformed line, or an entry count other
        than the header's, raises :class:`MalformedFileError` naming the
        file and the line number (the header's for the count)."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        n_rows, n_cols, nnz = record_ints(path, 1, (lines or [""])[0],
                                          "<rows> <cols> <nnz>")
        entries = tuple(tuple(record_ints(path, i, ln, "<row> <col>"))
                        for i, ln in enumerate(lines[1:], 2) if ln.strip())
        if len(entries) != nnz:
            raise MalformedFileError(
                path, 1, f"expected {nnz} entries, got {len(entries)}")
        return EchelonMatrix(n_rows, n_cols, entries)


def echelon_representation(g: GridGraph, t: SpanningTree) -> EchelonMatrix:
    """Build the echelon representation for tree t of grid g.

    Chord columns are derived from explicitly materialized fundamental
    cycles, independent of the O(1) length machinery.
    """
    if g.n < 2:
        raise EmptyMatroidError("the 1-grid has no edges to represent")
    tree_ids = [int(e) for e in t.tree_edge_ids()]
    row_of = {eid: i for i, eid in enumerate(sorted(tree_ids))}
    entries = []
    for eid, row in row_of.items():
        entries.append((row, eid))
    for chord in t.chord_ids():
        chord = int(chord)
        cycle = t.fundamental_cycle(chord)
        for i in range(len(cycle) - 1):
            f = g.edge_id(cycle[i], cycle[i + 1])
            entries.append((row_of[f], chord))
    entries.sort()
    return EchelonMatrix(len(row_of), g.num_edges, tuple(entries))


def sparsity(g: GridGraph, t: SpanningTree) -> int:
    """Number of ones of the echelon representation, via the identity
    (n^2 - 1) + L(t, g) - (n - 1)^2."""
    if g.n < 2:
        raise EmptyMatroidError("the 1-grid has no edges to represent")
    n = g.n
    L = t.total_length().L_total
    return (n * n - 1) + L - (n - 1) ** 2


def gf2_rank(m: EchelonMatrix) -> int:
    """GF(2) rank by elimination over bit-packed integer rows."""
    rows = [0] * m.n_rows
    for r, c in m.entries:
        rows[r] ^= 1 << c
    rank = 0
    for i in range(len(rows)):
        if rows[i] == 0:
            continue
        pivot = rows[i] & -rows[i]
        rank += 1
        for j in range(i + 1, len(rows)):
            if rows[j] & pivot:
                rows[j] ^= rows[i]
    return rank


def column_cycle_check(g: GridGraph, m: EchelonMatrix, t: SpanningTree,
                       chord: int) -> bool:
    """True iff the chord column plus its supporting tree-edge unit columns
    selects an even-degree edge set (a member of the cycle space)."""
    tree_ids = sorted(int(e) for e in t.tree_edge_ids())
    support_rows = m.column_support(chord)
    edge_set = [chord] + [tree_ids[r] for r in support_rows]
    deg = {}
    for eid in edge_set:
        e = g.edge(eid)
        for v in (e.a, e.b):
            deg[v] = deg.get(v, 0) + 1
    return all(d % 2 == 0 for d in deg.values())
