"""Recursive low-average-fundamental-cycle spanning trees of the n-grid.

``build_tree(n)`` assembles the tree T_n rooted at the bottom-right corner
(n, 1) from two spine paths and three or four half-size copies of itself:

* odd n:  full bottom row, full central column x=(n+1)/2, and four copies
  of T_{(n-1)/2}; the right-hand copies are mirrored horizontally so every
  copy's root sits next to the central column, to which it is joined by a
  single horizontal edge.
* even n (h = n/2): bottom path (h+1,1)..(n,1), column x=h+1 up to row h+1,
  unmirrored copies of T_h on the two left quadrants (roots (h,1) and
  (h,h+1), each joined to the column), a mirrored T_h on the top-right
  quadrant whose root lands exactly on the column's top vertex (h+1,h+1),
  and a mirrored T_{h-1} on [h+2,n]x[2,h] joined at (h+1,2).

Base cases: T_1 is a single vertex; T_2 is the 4-vertex path rooted at its
second vertex (2,1), which keeps every vertex within distance 2(n-1) of the
root; T_3 emerges from the odd recursion as three full rows plus the central
column.  The construction is deterministic: repeated calls yield identical
edge-id sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from .errors import ConstructionInvalidError, OutOfRangeError
from .grid import GridGraph, SubgridRef
from .tree import SpanningTree

_CTX = Context(prec=50)

# Totals of fundamental-cycle lengths L(T_n) for the smallest sizes.
RECORDED_SMALL_VALUES = {1: 0, 2: 4, 3: 16, 4: 42}


@dataclass(frozen=True)
class PlacedBlock:
    """One recursive copy: its subgrid and recursion label."""

    subgrid: SubgridRef
    child_order: int


def _emit(n: int, x0: int, y0: int, fh: bool, N: int, out: list) -> None:
    """Append the edge ids of a T_n copy occupying the square block with
    bottom-left corner (x0, y0), mirrored horizontally when ``fh``."""
    nh = N * (N - 1)

    def h_edge(lx, ly):
        gy = y0 + ly - 1
        gx = (x0 + n - lx - 1) if fh else (x0 + lx - 1)
        out.append((gy - 1) * (N - 1) + (gx - 1))

    def v_edge(lx, ly):
        gy = y0 + ly - 1
        gx = (x0 + n - lx) if fh else (x0 + lx - 1)
        out.append(nh + (gy - 1) * N + (gx - 1))

    def place(side, a, c, flip):
        gx0 = (x0 + n - (a + side - 1)) if fh else (x0 + a - 1)
        _emit(side, gx0, y0 + c - 1, fh ^ flip, N, out)

    if n == 1:
        return
    if n == 2:
        h_edge(1, 1)
        v_edge(2, 1)
        h_edge(1, 2)
        return
    if n % 2 == 1:
        m = (n - 1) // 2
        for x in range(1, n):
            h_edge(x, 1)
        for y in range(1, n):
            v_edge(m + 1, y)
        h_edge(m, 2)
        h_edge(m + 1, 2)
        h_edge(m, m + 2)
        h_edge(m + 1, m + 2)
        place(m, 1, 2, False)
        place(m, 1, m + 2, False)
        place(m, m + 2, 2, True)
        place(m, m + 2, m + 2, True)
    else:
        h = n // 2
        for x in range(h + 1, n):
            h_edge(x, 1)
        for y in range(1, h + 1):
            v_edge(h + 1, y)
        h_edge(h, 1)
        h_edge(h, h + 1)
        h_edge(h + 1, 2)
        place(h, 1, 1, False)
        place(h, 1, h + 1, False)
        place(h, h + 1, h + 1, True)
        place(h - 1, h + 2, 2, True)


def build_tree(n: int) -> SpanningTree:
    """The recursive spanning tree T_n of the n-grid, rooted at (n, 1)."""
    g = GridGraph(n)
    ids: list[int] = []
    _emit(n, 1, 1, False, n, ids)
    return SpanningTree.from_edges(g, ids, (n, 1))


def top_level_blocks(n: int) -> list[PlacedBlock]:
    """The recursive blocks of T_n's outermost level (n >= 4)."""
    if n < 4:
        raise OutOfRangeError(f"recursion not applicable below side 4, got {n}")
    if n % 2 == 1:
        m = (n - 1) // 2
        rects = [
            SubgridRef(1, m, 2, m + 1),
            SubgridRef(1, m, m + 2, n),
            SubgridRef(m + 2, n, 2, m + 1),
            SubgridRef(m + 2, n, m + 2, n),
        ]
    else:
        h = n // 2
        rects = [
            SubgridRef(1, h, 1, h),
            SubgridRef(1, h, h + 1, n),
            SubgridRef(h + 1, n, h + 1, n),
            SubgridRef(h + 2, n, 2, h),
        ]
    return [PlacedBlock(r, i + 1) for i, r in enumerate(rects)]


def _block_labels(g: GridGraph, n: int) -> np.ndarray:
    """Per-vertex label: 0 for the spine paths, 1..4 for the blocks."""
    labels = np.zeros(g.num_vertices, dtype=np.int64)
    for blk in top_level_blocks(n):
        r = blk.subgrid
        for y in range(r.y_lo, r.y_hi + 1):
            base = (y - 1) * n
            labels[base + r.x_lo - 1: base + r.x_hi] = blk.child_order
    return labels


def crossing_chords(t: SpanningTree) -> np.ndarray:
    """Chord ids whose endpoints lie in different top-level blocks of the
    recursion or touch the spine paths."""
    n = t.n
    g = t.host
    labels = _block_labels(g, n)
    chords = t.chord_ids()
    ua, ub = g.edge_endpoint_indices(chords)
    cross = (labels[ua] != labels[ub]) | (labels[ua] == 0) | (labels[ub] == 0)
    return chords[cross]


def crossing_edge_count(n: int) -> int:
    """Number of crossing chords of T_n, measured on the concrete tree.

    Equals 4n-8 for odd n and 3n-6 for even n.
    """
    return len(crossing_chords(build_tree(n)))


def log2_bound(n: int, factor: int) -> Decimal:
    """factor * log2(n) as a 50-digit decimal (guard band >> 1 ulp).

    Uses a fixed private context: the decimal module's default context is
    per-thread, and bound checks must not depend on the calling thread.
    """
    return _CTX.divide(_CTX.multiply(Decimal(factor), _CTX.ln(Decimal(n))),
                       _CTX.ln(Decimal(2)))


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    L_total: int
    average: Fraction | None
    max_depth: int
    depth_bound: int
    length_bound_floor: int

    def summary(self) -> str:
        avg = "-" if self.average is None else f"{float(self.average):.4f}"
        return (f"n={self.n} L={self.L_total} avg={avg} "
                f"depth={self.max_depth}<=2(n-1)={self.depth_bound} "
                f"L_bound_floor={self.length_bound_floor}")


def validate_construction(t: SpanningTree) -> ConstructionReport:
    """Check the structural contract of a constructed tree.

    Clauses: (a) the edge set is a valid spanning tree, (b) the root is the
    bottom-right corner, (c) every vertex is within distance 2(n-1) of the
    root, (d) the total cycle length is at most 10 n^2 log2 n for n >= 2,
    (e) for n <= 4 the total equals the recorded small value
    ``RECORDED_SMALL_VALUES[n]``, a sum of fundamental-cycle lengths (not of
    tree-path lengths, which are one shorter per chord).  Raises
    :class:`ConstructionInvalidError` naming the first failing clause.
    """
    n = t.n
    try:
        SpanningTree.from_edges(t.host, [int(e) for e in t.tree_edge_ids()],
                                t.root)
    except Exception as exc:
        raise ConstructionInvalidError("a", f"not a spanning tree: {exc}")
    if t.root != (n, 1):
        raise ConstructionInvalidError("b", f"root {t.root}, expected {(n, 1)}")
    depth_bound = 2 * (n - 1)
    if t.max_depth() > depth_bound:
        raise ConstructionInvalidError(
            "c", f"max depth {t.max_depth()} exceeds {depth_bound}")
    if n == 1:
        L = 0
        avg = None
        bound_floor = 0
    else:
        stats = t.total_length()
        L = stats.L_total
        avg = stats.average
        bound = log2_bound(n, 10 * n * n)
        bound_floor = int(bound)
        if Decimal(L) > bound:
            raise ConstructionInvalidError(
                "d", f"L={L} exceeds 10*n^2*log2(n)={bound}")
    if n in RECORDED_SMALL_VALUES and L != RECORDED_SMALL_VALUES[n]:
        raise ConstructionInvalidError(
            "e", f"L={L} but the recorded value for n={n} is "
                 f"{RECORDED_SMALL_VALUES[n]}")
    return ConstructionReport(n, L, avg, t.max_depth(), depth_bound,
                              bound_floor)


def crossing_cycle_cap(n: int) -> Fraction:
    """Per-chord cycle-length cap for crossing chords of T_n."""
    if n % 2 == 1:
        return Fraction(5 * n - 7, 2)
    return Fraction(5 * n - 2, 2)


def write_svg(t: SpanningTree, path, scale: int = 24) -> None:
    """Draw the tree as axis-aligned segments (root marked) into an SVG."""
    n = t.n
    size = (n + 1) * scale

    def pt(v):
        x, y = v
        return x * scale, (n + 1 - y) * scale

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for eid in t.tree_edge_ids():
        e = t.host.edge(int(eid))
        (x1, y1), (x2, y2) = pt(e.a), pt(e.b)
        lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     'stroke="black" stroke-width="2"/>')
    for v in t.host.vertices():
        x, y = pt(v)
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
    rx, ry = pt(t.root)
    lines.append(f'<circle cx="{rx}" cy="{ry}" r="6" fill="none" '
                 'stroke="black" stroke-width="2"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
