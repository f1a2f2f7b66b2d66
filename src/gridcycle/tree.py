"""Spanning trees of grids and their fundamental-cycle statistics.

A :class:`SpanningTree` stores parent/depth arrays over the host grid's
vertex indexing plus binary-lifting ancestor tables, so the length of any
chord's fundamental cycle is an O(log n) query and the full statistics
sweep is vectorized across all chords.  Bounding boxes of tree paths are
aggregated through the same tables, which keeps perimeter sums cheap even
at side 1024.

Cycle conventions: an "ordered vertex cycle" is a list of distinct vertices;
consecutive entries (and the last-to-first pair) are the cycle's edges, so
the cycle's length equals the list's length.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    EmptyCycleError,
    NoChordsError,
    NotAChordError,
    NotASpanningTreeError,
    UnknownEdgeError,
)
from .grid import Coord, Edge, GridGraph


class AncestorTables:
    """Binary-lifting tables over a rooted tree given by parent/depth arrays.

    ``parent[root] == root``.  Coordinates per node feed the bounding-box
    aggregation; arbitrary boolean node flags can be OR-aggregated along
    paths (used for band-hit queries).  All query methods are vectorized.
    """

    def __init__(self, parent, depth, xs, ys):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.int64)
        self.ys = np.asarray(ys, dtype=np.int64)
        maxd = int(self.depth.max(initial=0))
        self.levels = max(1, maxd.bit_length())
        up = [self.parent]
        for _ in range(1, self.levels):
            up.append(up[-1][up[-1]])
        self.up = up
        self._boxes = None
        self._flag_tables = {}

    # -- core lifting ------------------------------------------------------

    def ancestor(self, u, d):
        """p^d(u), elementwise."""
        u = np.array(u, dtype=np.int64, copy=True)
        d = np.asarray(d, dtype=np.int64)
        for k in range(self.levels):
            mask = ((d >> k) & 1).astype(bool)
            if mask.any():
                u[mask] = self.up[k][u[mask]]
        return u

    def lca(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        du, dv = self.depth[u], self.depth[v]
        u = self.ancestor(u, np.maximum(du - dv, 0))
        v = self.ancestor(v, np.maximum(dv - du, 0))
        u = u.copy()
        v = v.copy()
        for k in range(self.levels - 1, -1, -1):
            move = (self.up[k][u] != self.up[k][v])
            if move.any():
                u[move] = self.up[k][u[move]]
                v[move] = self.up[k][v[move]]
        return np.where(u == v, u, self.parent[u])

    def cycle_lengths(self, u, v):
        """Length of chord {u,v}'s fundamental cycle: tree path plus one."""
        w = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2 * self.depth[w] + 1

    def distances(self, u, v):
        """Number of tree edges on the paths u..v, elementwise."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2 * self.depth[w]

    # -- box aggregation ---------------------------------------------------

    def _box_tables(self):
        if self._boxes is None:
            xmin, xmax = [self.xs], [self.xs]
            ymin, ymax = [self.ys], [self.ys]
            for k in range(1, self.levels):
                j = self.up[k - 1]
                xmin.append(np.minimum(xmin[-1], xmin[-1][j]))
                xmax.append(np.maximum(xmax[-1], xmax[-1][j]))
                ymin.append(np.minimum(ymin[-1], ymin[-1][j]))
                ymax.append(np.maximum(ymax[-1], ymax[-1][j]))
            self._boxes = (xmin, xmax, ymin, ymax)
        return self._boxes

    def _climb_box(self, u, d):
        """Box over the half-open vertex run u, p(u), ..., p^(d-1)(u)."""
        xmin_t, xmax_t, ymin_t, ymax_t = self._box_tables()
        big = np.iinfo(np.int64).max
        axmin = np.full(u.shape, big)
        axmax = np.full(u.shape, -big)
        aymin = np.full(u.shape, big)
        aymax = np.full(u.shape, -big)
        cur = np.array(u, copy=True)
        for k in range(self.levels):
            mask = ((d >> k) & 1).astype(bool)
            if mask.any():
                c = cur[mask]
                axmin[mask] = np.minimum(axmin[mask], xmin_t[k][c])
                axmax[mask] = np.maximum(axmax[mask], xmax_t[k][c])
                aymin[mask] = np.minimum(aymin[mask], ymin_t[k][c])
                aymax[mask] = np.maximum(aymax[mask], ymax_t[k][c])
                cur[mask] = self.up[k][c]
        return axmin, axmax, aymin, aymax

    def path_boxes(self, u, v):
        """Bounding boxes (xmin, xmax, ymin, ymax) of the tree paths u..v."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = self.lca(u, v)
        dw = self.depth[w]
        bu = self._climb_box(u, self.depth[u] - dw)
        bv = self._climb_box(v, self.depth[v] - dw)
        xmin = np.minimum(np.minimum(bu[0], bv[0]), self.xs[w])
        xmax = np.maximum(np.maximum(bu[1], bv[1]), self.xs[w])
        ymin = np.minimum(np.minimum(bu[2], bv[2]), self.ys[w])
        ymax = np.maximum(np.maximum(bu[3], bv[3]), self.ys[w])
        return xmin, xmax, ymin, ymax

    def path_perimeters(self, u, v):
        xmin, xmax, ymin, ymax = self.path_boxes(u, v)
        return 2 * (xmax - xmin) + 2 * (ymax - ymin)

    # -- flag aggregation --------------------------------------------------

    def _flag_table(self, key, node_flags):
        if key not in self._flag_tables:
            tabs = [np.asarray(node_flags, dtype=bool)]
            for k in range(1, self.levels):
                tabs.append(tabs[-1] | tabs[-1][self.up[k - 1]])
            self._flag_tables[key] = tabs
        return self._flag_tables[key]

    def path_hits(self, u, v, key, node_flags):
        """Whether the tree path u..v contains a flagged node (vectorized)."""
        tabs = self._flag_table(key, node_flags)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = self.lca(u, v)
        dw = self.depth[w]
        hit = tabs[0][w].copy()

        def climb(s, d, hit):
            cur = np.array(s, copy=True)
            for k in range(self.levels):
                mask = ((d >> k) & 1).astype(bool)
                if mask.any():
                    c = cur[mask]
                    hit[mask] |= tabs[k][c]
                    cur[mask] = self.up[k][c]
            return hit

        hit = climb(u, self.depth[u] - dw, hit)
        hit = climb(v, self.depth[v] - dw, hit)
        return hit


@dataclass(frozen=True)
class CycleBox:
    """Smallest axis-parallel box bounding a cycle."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    @property
    def width(self) -> int:
        return self.x_max - self.x_min

    @property
    def height(self) -> int:
        return self.y_max - self.y_min

    @property
    def perimeter(self) -> int:
        return 2 * self.width + 2 * self.height


def cycle_box(cycle) -> CycleBox:
    """Bounding box of an ordered vertex cycle (or any vertex sequence)."""
    if not cycle:
        raise EmptyCycleError("cannot bound an empty vertex sequence")
    xs = [v[0] for v in cycle]
    ys = [v[1] for v in cycle]
    return CycleBox(min(xs), max(xs), min(ys), max(ys))


@dataclass(frozen=True)
class CycleStats:
    """Per-chord fundamental-cycle records plus exact totals.

    ``average`` is kept as an exact rational so bound comparisons never go
    through floating point.
    """

    edge_ids: np.ndarray
    lengths: np.ndarray
    perimeters: np.ndarray
    L_total: int
    P_total: int
    count: int
    average: Fraction

    def records(self):
        """(edge_id, length, perimeter) triples in canonical edge order."""
        return list(zip(self.edge_ids.tolist(), self.lengths.tolist(),
                        self.perimeters.tolist()))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["edge_id", "length", "perimeter"])
            for rec in self.records():
                out.writerow(rec)


class SpanningTree:
    """A rooted spanning tree of an n-grid.

    Immutable after construction; all queries are pure, so instances can be
    shared between threads.
    """

    def __init__(self, host: GridGraph, root: Coord, parent_idx, depth_arr,
                 tree_edge_mask):
        self.host = host
        self.root = root
        self.parent_idx = parent_idx
        self.depth_arr = depth_arr
        self.tree_edge_mask = tree_edge_mask
        n = host.n
        idx = np.arange(n * n, dtype=np.int64)
        self._tables = AncestorTables(parent_idx, depth_arr,
                                      idx % n + 1, idx // n + 1)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(g: GridGraph, edge_ids, root: Coord) -> "SpanningTree":
        """Validate an edge-id set and build the rooted tree.

        Raises :class:`NotASpanningTreeError` with cause ``cardinality``,
        ``cyclic`` or ``disconnected``.
        """
        g.check_vertex(root)
        given = [int(e) for e in edge_ids]
        ids = sorted(set(given))
        if len(ids) != len(given):
            raise NotASpanningTreeError("cardinality", "duplicate edge ids")
        for e in ids:
            if not 0 <= e < g.num_edges:
                raise UnknownEdgeError(f"edge id {e} is not a host edge")
        n = g.n
        nv = n * n
        if len(ids) != nv - 1:
            raise NotASpanningTreeError(
                "cardinality",
                f"spanning tree of the {n}-grid needs {nv - 1} edges, got {len(ids)}")
        mask = np.zeros(g.num_edges, dtype=bool)
        if ids:
            mask[np.asarray(ids, dtype=np.int64)] = True
        parent_idx, depth_arr = _bfs_parents(g, np.asarray(ids, dtype=np.int64), root)
        visited = depth_arr >= 0
        if not visited.all():
            ua, ub = g.edge_endpoint_indices(np.asarray(ids, dtype=np.int64))
            inside = visited[ua] & visited[ub]
            ncomp = int(visited.sum())
            if int(inside.sum()) > ncomp - 1:
                raise NotASpanningTreeError("cyclic",
                                            "edge set contains a cycle")
            raise NotASpanningTreeError("disconnected",
                                        "edge set does not connect all vertices")
        return SpanningTree(g, root, parent_idx, depth_arr, mask)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.host.n

    def tree_edge_ids(self):
        return np.nonzero(self.tree_edge_mask)[0]

    def chord_ids(self):
        return np.nonzero(~self.tree_edge_mask)[0]

    def parent(self, v: Coord) -> Coord:
        return self.host.vertex_at(int(self.parent_idx[self.host.vertex_index(v)]))

    def depth(self, v: Coord) -> int:
        return int(self.depth_arr[self.host.vertex_index(v)])

    def max_depth(self) -> int:
        return int(self.depth_arr.max())

    def contains_edge(self, eid: int) -> bool:
        return bool(self.tree_edge_mask[eid])

    # -- fundamental cycles ------------------------------------------------

    def fundamental_cycle(self, e) -> list[Coord]:
        """Ordered vertex cycle of a chord, traced by explicit parent walks.

        Deliberately does not use the lifting tables, so it serves as an
        independent cross-check of the O(1) length formula.
        """
        eid = e.id if isinstance(e, Edge) else int(e)
        if not 0 <= eid < self.host.num_edges:
            raise UnknownEdgeError(f"edge id {eid} is not a host edge")
        if self.tree_edge_mask[eid]:
            raise NotAChordError(f"edge {eid} is a tree edge, not a chord")
        edge = self.host.edge(eid)
        g = self.host
        a = g.vertex_index(edge.a)
        b = g.vertex_index(edge.b)
        par, dep = self.parent_idx, self.depth_arr
        ua, ub = a, b
        up_a, up_b = [a], [b]
        while dep[ua] > dep[ub]:
            ua = int(par[ua])
            up_a.append(ua)
        while dep[ub] > dep[ua]:
            ub = int(par[ub])
            up_b.append(ub)
        while ua != ub:
            ua = int(par[ua])
            ub = int(par[ub])
            up_a.append(ua)
            up_b.append(ub)
        cycle_idx = up_a + up_b[-2::-1]
        return [g.vertex_at(i) for i in cycle_idx]

    def cycle_length(self, eid: int) -> int:
        """O(log n) fundamental-cycle length of a chord."""
        return int(self.cycle_lengths([eid])[0])

    def cycle_lengths(self, eids) -> np.ndarray:
        """Vectorized fundamental-cycle lengths for an array of chord ids."""
        eids = np.asarray(eids, dtype=np.int64)
        if len(eids) and self.tree_edge_mask[eids].any():
            raise NotAChordError("given edges include tree edges")
        ua, ub = self.host.edge_endpoint_indices(eids)
        return self._tables.cycle_lengths(ua, ub)

    def distances(self, u, v) -> np.ndarray:
        """Vectorized tree distances between vertex indices u and v."""
        return self._tables.distances(u, v)

    def total_length(self) -> CycleStats:
        """Lengths and bounding-box perimeters of every chord's cycle."""
        g = self.host
        if g.n < 2:
            raise NoChordsError("the 1-grid has no chords")
        chords = self.chord_ids()
        ua, ub = g.edge_endpoint_indices(chords)
        lengths = self._tables.cycle_lengths(ua, ub)
        perims = self._tables.path_perimeters(ua, ub)
        L = int(lengths.sum())
        P = int(perims.sum())
        count = len(chords)
        return CycleStats(chords, lengths, perims, L, P, count,
                          Fraction(L, count))

    # -- file format -------------------------------------------------------

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"n {self.n}\n")
            fh.write(f"root {self.root[0]} {self.root[1]}\n")
            for eid in self.tree_edge_ids():
                fh.write(f"{int(eid)}\n")

    @staticmethod
    def from_file(path) -> "SpanningTree":
        """Read a tree file.  A missing or malformed line raises
        ``ValueError`` naming the file and the line number."""
        with open(path) as fh:
            lines = fh.read().splitlines()

        def ints(i, shape):
            """The integers of lines[i], laid out as shape."""
            toks, words = lines[i].split(), shape.split()
            key = [] if words[0].startswith("<") else words[:1]
            if toks[:len(key)] == key and len(toks) == len(words):
                try:
                    return [int(t) for t in toks[len(key):]]
                except ValueError:
                    pass
            raise ValueError(f"{path}:{i + 1}: expected '{shape}', got "
                             f"{' '.join(toks)!r}")

        def header(start, shape):
            """The index after the first non-blank line from lines[start]
            on, and that line's integers."""
            for i in range(start, len(lines)):
                if lines[i].strip():
                    return i + 1, ints(i, shape)
            raise ValueError(
                f"{path}:{len(lines) + 1}: missing line '{shape}'")

        at, (n,) = header(0, "n <side>")
        at, (rx, ry) = header(at, "root <x> <y>")
        try:
            ids = [int(ln) for ln in lines[at:] if ln.strip()]
        except ValueError:
            ids = [ints(i, "<edge-id>")[0] for i in range(at, len(lines))
                   if lines[i].strip()]
        return SpanningTree.from_edges(GridGraph(n), ids, (rx, ry))


def _bfs_parents(g: GridGraph, edge_ids, root: Coord):
    """Parent and depth arrays of the edge-induced graph, BFS from root.

    Unreached vertices get depth -1.
    """
    nv = g.num_vertices
    ridx = g.vertex_index(root)
    if len(edge_ids) == 0:
        parent = np.arange(nv, dtype=np.int64)
        depth = np.full(nv, -1, dtype=np.int64)
        depth[ridx] = 0
        return parent, depth
    ua, ub = g.edge_endpoint_indices(edge_ids)
    rows = np.concatenate([ua, ub])
    cols = np.concatenate([ub, ua])
    data = np.ones(len(rows), dtype=np.int8)
    adj = csr_matrix((data, (rows, cols)), shape=(nv, nv))
    dist, pred = dijkstra(adj, indices=ridx, unweighted=True,
                          return_predecessors=True)
    depth = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    parent = pred.astype(np.int64)
    parent[parent < 0] = np.arange(nv, dtype=np.int64)[parent < 0]
    parent[ridx] = ridx
    return parent, depth


def tree_from_edges(g: GridGraph, edge_ids, root: Coord) -> SpanningTree:
    return SpanningTree.from_edges(g, edge_ids, root)


def fundamental_cycle(t: SpanningTree, e) -> list[Coord]:
    return t.fundamental_cycle(e)


def total_length(t: SpanningTree) -> CycleStats:
    return t.total_length()
