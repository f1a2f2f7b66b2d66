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

Each size's edges are built once per call as coordinate arrays, and every
copy of a smaller size is placed by one vectorized affine map (mirror, then
offset), so T_n takes O(log n) numpy steps.
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


def _spines(n: int):
    """T_n's edges outside its blocks (n >= 2), as (lx, ly) pairs in its
    own frame: horizontal ones join (lx, ly)-(lx+1, ly), vertical ones
    (lx, ly)-(lx, ly+1)."""
    if n == 2:
        return [(1, 1), (1, 2)], [(2, 1)]
    if n % 2 == 1:
        m = (n - 1) // 2
        horizontal = [(x, 1) for x in range(1, n)] + [
            (m, 2), (m + 1, 2), (m, m + 2), (m + 1, m + 2)]
        vertical = [(m + 1, y) for y in range(1, n)]
    else:
        h = n // 2
        horizontal = [(x, 1) for x in range(h + 1, n)] + [
            (h, 1), (h, h + 1), (h + 1, 2)]
        vertical = [(h + 1, y) for y in range(1, h + 1)]
    return horizontal, vertical


def _blocks(n: int) -> list[SubgridRef]:
    """The four blocks of T_n (n >= 3) in recursion order; the last two
    hold mirrored copies."""
    if n % 2 == 1:
        m = (n - 1) // 2
        return [SubgridRef(1, m, 2, m + 1), SubgridRef(1, m, m + 2, n),
                SubgridRef(m + 2, n, 2, m + 1), SubgridRef(m + 2, n, m + 2, n)]
    h = n // 2
    return [SubgridRef(1, h, 1, h), SubgridRef(1, h, h + 1, n),
            SubgridRef(h + 1, n, h + 1, n), SubgridRef(h + 2, n, 2, h)]


def _local_edges(n: int, memo: dict):
    """T_n's edges in its own frame as four int32 arrays (hx, hy, vx, vy):
    the (lx, ly) pairs of its horizontal and of its vertical edges.

    Each block's copy is placed by one affine map of its arrays.  Mirroring
    into a block whose right column is x_hi maps lx to x_hi - lx on
    horizontal edges and to x_hi + 1 - lx on vertical ones.  ``memo``
    holds every size built so far.
    """
    if n not in memo:
        if n == 1:
            memo[n] = (np.empty(0, dtype=np.int32),) * 4
            return memo[n]
        h, v = (np.array(e, dtype=np.int32).T for e in _spines(n))
        hx, hy, vx, vy = [h[0]], [h[1]], [v[0]], [v[1]]
        for i, r in enumerate(_blocks(n) if n > 2 else []):
            chx, chy, cvx, cvy = _local_edges(r.side, memo)
            if i >= 2:
                hx.append(r.x_hi - chx)
                vx.append((r.x_hi + 1) - cvx)
            else:
                hx.append(chx + (r.x_lo - 1))
                vx.append(cvx + (r.x_lo - 1))
            hy.append(chy + (r.y_lo - 1))
            vy.append(cvy + (r.y_lo - 1))
        memo[n] = tuple(np.concatenate(p) for p in (hx, hy, vx, vy))
    return memo[n]


def _edge_ids(n: int) -> np.ndarray:
    """The canonical edge ids of T_n, in no particular order."""
    hx, hy, vx, vy = (a.astype(np.int64) for a in _local_edges(n, {}))
    return np.concatenate([(hy - 1) * (n - 1) + (hx - 1),
                           n * (n - 1) + (vy - 1) * n + (vx - 1)])


def build_tree(n: int) -> SpanningTree:
    """The recursive spanning tree T_n of the n-grid, rooted at (n, 1)."""
    return SpanningTree.from_edges(GridGraph(n), _edge_ids(n), (n, 1))


def _block_labels(n: int) -> np.ndarray:
    """Per-vertex label of T_n's outermost level (n >= 4): 0 for the spine
    paths, 1..4 for the blocks in recursion order."""
    if n < 4:
        raise OutOfRangeError(f"recursion not applicable below side 4, got {n}")
    labels = np.zeros((n, n), dtype=np.int64)
    for k, r in enumerate(_blocks(n), start=1):
        labels[r.y_lo - 1:r.y_hi, r.x_lo - 1:r.x_hi] = k
    return labels.ravel()


def crossing_chords(t: SpanningTree) -> np.ndarray:
    """Chord ids whose endpoints lie in different top-level blocks of the
    recursion or touch the spine paths."""
    n = t.n
    g = t.host
    labels = _block_labels(n)
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
        SpanningTree.from_edges(t.host, t.tree_edge_ids(), t.root)
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
    g = t.host
    ua, ub = g.edge_endpoint_indices(t.tree_edge_ids())
    for a, b in zip(ua.tolist(), ub.tolist()):
        (x1, y1), (x2, y2) = pt(g.vertex_at(a)), pt(g.vertex_at(b))
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
