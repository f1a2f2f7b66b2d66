"""Expanded grids: duplicated boundary vertices, boundary-length extra edges,
perimeter sums, subgrid contraction, rerouted walks and winding numbers.

An expanded grid is a host n-grid plus duplicates of peripheral vertices and
extra edges between peripheral/duplicate vertices, drawable with every
duplicate arbitrarily close to its base vertex.  Extra edges carry the
length of the shortest boundary path between the (base) coordinates of
their endpoints; host edges have length 1.

Vertex references in the public API: a host vertex is a plain coordinate
pair ``(x, y)``; a duplicate is ``("d", id)``.  Walks are lists of such
references; consecutive entries (wrapping around) are the walk's edges.

The central operation is ``contract(h, t, sub)``: restrict a spanning tree
to the minimal subtree covering a subgrid, dissolve outside degree-2
vertices into boundary edges, and demote surviving outside branch vertices
to duplicates of their nearest subgrid-boundary vertex.  The result is again
an expanded grid (host coordinates shifted to 1-based; the original offset
is kept in ``origin``) together with its spanning tree.

Contraction runs on preorder ranges.  Each tree lays itself out once along
a DFS preorder, in which every subtree is one contiguous range; the 25 tile
contractions of a tree share that layout and differ only in which vertices
they mark, so a tile's Steiner tree comes from prefix sums over the marks
with no step per node or per depth level.  Every contracted grid is still
validated like any other, its drawability included.  Drawability is decided
from the bridges of the boundary cycle (``ExpandedGrid.is_drawable``): a
sector test over pairs of the bridges that must lie in the outer face, and
a small path-addition planarity test for each component of duplicates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse.csgraph import depth_first_order

from .errors import (
    CounterexampleError,
    DegeneratePointError,
    EmptyCycleError,
    GridCycleError,
    LayerError,
    MalformedEdgeError,
    MalformedFileError,
    NotDrawableError,
    OutOfRangeError,
)
from .grid import Coord, GridGraph, SubgridRef
from .tree import (AncestorTables, SpanningTree, _adjacency, _bfs,
                   _box_perimeters, _dual_fold, _edge_id_array, _face_boxes,
                   _integer_ids, malformed_line, missing_line, record_ints,
                   tree_path)


@dataclass(frozen=True)
class Duplicate:
    """A copy of a peripheral host vertex, pinned near its base.

    ``boundary_slot`` orders duplicates sharing a base within the outer-face
    cyclic order (base first, then its duplicates by slot).
    """

    id: int
    base: Coord
    boundary_slot: int


def _is_dup_ref(ref) -> bool:
    return isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "d"


class ExpandedGrid:
    """Host grid plus duplicates and extra edges (lengths cached)."""

    def __init__(self, host: GridGraph, duplicates=(), xedges=(),
                 origin: Coord = (0, 0)):
        self.host = host
        self.duplicates = tuple(duplicates)
        self.xedges = tuple((a, b) for a, b in xedges)
        self.origin = origin
        for k, d in enumerate(self.duplicates):
            if d.id != k:
                raise ValueError(f"duplicate ids must be 0..{len(self.duplicates)-1}")
        self.xedge_lengths = tuple(self._length(a, b) for a, b in self.xedges)
        self.validate()

    # -- vertex references ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.host.num_vertices + len(self.duplicates)

    def ref_position(self, ref) -> Coord:
        """Drawing position of a vertex: itself, or the duplicate's base."""
        if _is_dup_ref(ref):
            return self.duplicates[ref[1]].base
        return ref

    def ref_index(self, ref) -> int:
        if _is_dup_ref(ref):
            k = ref[1]
            if not 0 <= k < len(self.duplicates):
                raise OutOfRangeError(f"no duplicate with id {k}")
            return self.host.num_vertices + k
        self.host.check_vertex(ref)
        return self.host.vertex_index(ref)

    def index_ref(self, idx: int):
        nv = self.host.num_vertices
        if idx < nv:
            return self.host.vertex_at(idx)
        return ("d", idx - nv)

    def node_positions(self):
        """int32 (xs, ys) arrays over all node indices; duplicates at their
        bases."""
        n = self.host.n
        nv = self.host.num_vertices
        xs = np.empty(self.num_nodes, dtype=np.int32)
        ys = np.empty(self.num_nodes, dtype=np.int32)
        idx = np.arange(nv, dtype=np.int32)
        xs[:nv] = idx % n + 1
        ys[:nv] = idx // n + 1
        for k, d in enumerate(self.duplicates):
            xs[nv + k], ys[nv + k] = d.base
        return xs, ys

    # -- lengths ---------------------------------------------------------------

    def _peripheral_or_dup(self, ref) -> bool:
        if _is_dup_ref(ref):
            return 0 <= ref[1] < len(self.duplicates)
        return self.host.contains(ref) and self.host.is_peripheral(ref)

    def _length(self, a, b) -> int:
        for ref in (a, b):
            if not self._peripheral_or_dup(ref):
                raise MalformedEdgeError(
                    f"extra-edge endpoint {ref!r} is neither peripheral nor a duplicate")
        return self.host.boundary_distance(self.ref_position(a),
                                           self.ref_position(b))

    def xedge_length(self, edge) -> int:
        """Length of an extra edge, by index or (endpoint, endpoint) pair."""
        if isinstance(edge, int):
            if not 0 <= edge < len(self.xedges):
                raise OutOfRangeError(f"no extra edge with index {edge}")
            return self.xedge_lengths[edge]
        a, b = edge
        return self._length(a, b)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check base peripherality, self-loops and drawability.  Endpoint
        peripherality is checked once, when the extra-edge lengths are
        computed."""
        for d in self.duplicates:
            self.host.check_vertex(d.base)
            if not self.host.is_peripheral(d.base):
                raise MalformedEdgeError(
                    f"duplicate {d.id} based at non-peripheral {d.base}")
        for a, b in self.xedges:
            if self.ref_index(a) == self.ref_index(b):
                raise MalformedEdgeError("extra edge joins a vertex to itself")
        if not self.is_drawable():
            raise NotDrawableError(
                "extra edges admit no planar outer embedding with duplicates "
                "pinned at their bases")

    def is_drawable(self) -> bool:
        """Whether the extra edges embed in the plane with the grid's
        interior a face, duplicates taken as free outside vertices.

        Pinning duplicates near their bases costs nothing combinatorially:
        a boundary-fixing ambient isotopy of the outer region can drag any
        vertex there arbitrarily close to its base while the incident curves
        follow.  Joining an apex to every vertex of the boundary cycle R
        keeps the interior a face, so the question is whether G = R + apex
        + extra edges is planar.  It is decided from the bridges of R in G:

        * every boundary-to-boundary extra edge that is not a ring edge (a
          chord bridge);
        * every connected component of duplicates under the
          duplicate-to-duplicate edges, with its edges to R;
        * the apex, attached to all of R.

        Two bridges *overlap* when they share three attachments or are skew
        (attachments u, v of one and u', v' of the other lie in the order
        u, u', v, v' around R).  By Tutte's theorem on the bridges of a
        cycle (Mohar and Thomassen, *Graphs on Surfaces*, 2001), G is planar
        iff R + B is planar for every bridge B and the overlap graph is
        bipartite.  With A the attachments of B:

        1. If A lies within one ring edge {i, i+1}, B overlaps no bridge: it
           has at most two attachments, with no vertex of R strictly
           between them on one side.  Every other, *outer*, bridge overlaps
           the apex: it has three or more attachments, or two with vertices
           of R strictly between them on both sides.  (So the outer bridges
           must all lie in the outer face of the wheel R + apex, whose
           embedding is unique because a wheel is 3-connected.)  The
           overlap graph is therefore the apex joined to every outer bridge
           plus the overlaps among outer bridges, and it is bipartite iff
           the outer bridges pairwise do not overlap: any overlap among
           them closes a triangle through the apex.
        2. Bridges B and B' with |A| >= 2 do not overlap iff A' lies within
           one closed *sector* of B, an arc of R between cyclically
           consecutive attachments a_j, a_{j+1}.  If it does, B' shares at
           most a_j and a_{j+1} with B, and no two attachments of B'
           separate two of B.  If it does not, either A' is a subset of A
           with three members, or with two that are not consecutive and so
           separate two others of A; or some a' of A' lies strictly inside
           a sector (a_j, a_{j+1}) and another, a'', outside it, and then
           a_j, a', a_{j+1}, a'' are skew.
        3. R + B is planar for the apex (a wheel) and for a chord.  For a
           duplicate bridge, suppressing the vertices of R of degree two in
           R + B leaves Q_B: B plus the cycle through A in ring order (an
           edge if |A| = 2, nothing if |A| <= 1), planar iff R + B is.
           :func:`_is_planar` decides it.

        So G is planar iff every Q_B is planar and the outer bridges pass
        the pairwise sector test.  Self-loops never reach this check
        (``validate`` rejects them first); parallel edges, chords along ring
        edges and isolated duplicates change nothing.
        """
        host = self.host
        if host.n == 1 or not self.xedges:
            return True
        ring = 4 * host.n - 4
        # Vertices: boundary positions 0..ring-1, then ring + duplicate id.
        ends = [tuple(ring + r[1] if _is_dup_ref(r)
                      else host.boundary_position(r) for r in e)
                for e in self.xedges]
        outer = []
        for att, edges in _ring_bridges(ends, ring):
            # Q_B; for |A| <= 2 the cycle through A degenerates into a loop
            # or a doubled edge, which _is_planar ignores.
            if edges and not _is_planar(edges
                                        + list(zip(att, att[1:] + att[:1]))):
                return False
            if len(att) > 2 or (len(att) == 2
                                and 1 < att[1] - att[0] < ring - 1):
                outer.append(att)
        return _sectors_nest(outer)

    # -- file format -------------------------------------------------------

    def to_file(self, path) -> None:
        def fmt(ref):
            if _is_dup_ref(ref):
                return f"d {ref[1]}"
            return f"h {ref[0]} {ref[1]}"

        with open(path, "w") as fh:
            fh.write(f"n {self.host.n}\n")
            for d in self.duplicates:
                fh.write(f"dup {d.id} {d.base[0]} {d.base[1]} {d.boundary_slot}\n")
            for a, b in self.xedges:
                fh.write(f"xedge {fmt(a)} {fmt(b)}\n")

    @staticmethod
    def from_file(path) -> "ExpandedGrid":
        """Read an expanded-grid file.  A missing or malformed record, or a
        duplicate id out of the order 0, 1, 2, ..., raises
        :class:`MalformedFileError` naming the file and the line number."""
        n = None
        dups = []
        xedges = []
        with open(path) as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines, 1):
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "n":
                (n,) = record_ints(path, i, line, "n <side>")
            elif tok[0] == "dup":
                d, x, y, slot = record_ints(path, i, line,
                                            "dup <id> <x> <y> <slot>")
                if d != len(dups):
                    raise MalformedFileError(
                        path, i, f"expected duplicate id {len(dups)}, got {d}")
                dups.append(Duplicate(d, (x, y), slot))
            elif tok[0] == "xedge":
                xedges.append(_xedge_record(path, i, line))
            else:
                raise MalformedFileError(path, i, f"unknown record {tok[0]!r}")
        if n is None:
            raise missing_line(path, len(lines) + 1, "n <side>")
        return ExpandedGrid(GridGraph(n), dups, xedges)


# -- drawability: the bridges of the boundary cycle ----------------------------


def _ring_bridges(ends, ring: int) -> list:
    """The bridges of the cycle 0, 1, ..., ring-1 in the graph of the edges
    ``ends`` (vertices from ``ring`` on lie off the cycle), each as its
    attachments in ring order and its edges: one bridge per chord that is
    not a ring edge (its edges left empty) and one per component of the
    vertices off the cycle."""
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in ends:
        if a >= ring and b >= ring:
            root[find(a)] = find(b)
    bridges = []
    parts = {}
    for a, b in ends:
        if a < ring and b < ring:
            if (a - b) % ring not in (1, ring - 1):
                bridges.append(((min(a, b), max(a, b)), []))
            continue
        att, edges = parts.setdefault(find(max(a, b)), (set(), []))
        edges.append((a, b))
        if min(a, b) < ring:
            att.add(min(a, b))
    return bridges + [(tuple(sorted(att)), edges)
                      for att, edges in parts.values()]


def _sectors_nest(atts) -> bool:
    """Whether no two of these attachment tuples (ascending ring positions,
    at least two each) overlap: of each pair, the later lies within one
    closed sector of the earlier, a sector being the arc from one
    attachment to the next in ring order.  (Not overlapping is symmetric,
    so one direction suffices.)"""
    for k, p in enumerate(atts):
        m = len(p)
        for q in atts[k + 1:]:
            common = set(range(m))
            for x in q:
                j = bisect_left(p, x)
                # Sector j runs from p[j] to p[j + 1]; the last one wraps.
                common &= ({(j - 1) % m, j} if j < m and p[j] == x
                           else {(j - 1) % m})
                if not common:
                    return False
    return True


def _is_planar(edges) -> bool:
    """Planarity of a graph given by its edges (loops and parallel edges
    ignored): a graph is planar iff each of its biconnected blocks is."""
    adj = {}
    for a, b in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return all(_block_is_planar(block) for block in _blocks(adj))


def _blocks(adj):
    """The biconnected blocks of a simple graph (``adj`` maps each vertex to
    its neighbour set), each as a list of edges: Hopcroft and Tarjan's
    depth-first search, run with an explicit stack.  A stack entry keeps
    where its vertex's tree edge sits on the edge stack."""
    num, low = {}, {}
    for root in adj:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        stack = [(root, iter(adj[root]), 0)]
        edges = []
        while stack:
            v, it, _ = stack[-1]
            for w in it:
                if w not in num:
                    num[w] = low[w] = len(num)
                    stack.append((w, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if num[w] < num[v] and (len(stack) < 2 or w != stack[-2][0]):
                    low[v] = min(low[v], num[w])
                    edges.append((v, w))
            else:
                _, _, mark = stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= num[u]:
                        yield edges[mark:]
                        del edges[mark:]


def _block_is_planar(edges) -> bool:
    """Planarity of a biconnected simple graph by path addition (Demoucron,
    Malgrange and Pertuiset, 1964).

    Embed a cycle; it bounds two faces.  Then, while a bridge of the
    embedded part remains, find for every bridge the faces whose boundary
    holds all its attachments.  A bridge with none makes the graph
    nonplanar; otherwise a path of the bridge between two attachments goes
    into such a face, which it splits in two, taking a bridge with one such
    face first when there is one.  The graph is planar iff this embeds
    every edge.  Every face of a biconnected plane graph is bounded by a
    cycle, kept here as its vertex list.
    """
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    nv = len(adj)
    if nv <= 4:
        return True
    if len(edges) > 3 * nv - 6:
        return False
    # A first cycle: the edge (a, b) and a shortest other path from b to a.
    a, b = edges[0]
    prev = {a: a}
    queue = [a]
    for v in queue:
        for w in adj[v]:
            if w not in prev and (v, w) != (a, b):
                prev[w] = v
                queue.append(w)
    cycle = [b]
    while cycle[-1] != a:
        cycle.append(prev[cycle[-1]])
    faces = [cycle, list(cycle)]
    on = {v: {0, 1} for v in cycle}  # embedded vertex -> faces through it
    placed = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    while True:
        # Bridges as (attachments, component off the embedded part): chords
        # have no component.
        bridges = [((v, w), None) for v in on for w in adj[v]
                   if v < w and w in on and frozenset((v, w)) not in placed]
        seen = set()
        for s in adj:
            if s in on or s in seen:
                continue
            seen.add(s)
            comp, att = [s], set()
            for v in comp:
                for w in adj[v]:
                    if w in on:
                        att.add(w)
                    elif w not in seen:
                        seen.add(w)
                        comp.append(w)
            bridges.append((att, comp))
        if not bridges:
            return True
        pick = None
        for att, comp in bridges:
            fits = set.intersection(*(on[v] for v in att))
            if not fits:
                return False
            if pick is None or len(fits) == 1:
                pick = att, comp, fits
                if len(fits) == 1:
                    break
        att, comp, fits = pick
        path = list(att) if comp is None else _bridge_path(adj, att, comp)
        f = min(fits)
        face = faces[f]
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        for v in face:
            on[v].discard(f)
        faces[f] = face[:j + 1] + path[-2:0:-1]
        faces.append(face[j:] + face[:1] + path[1:-1])
        for g in (f, len(faces) - 1):
            for v in faces[g]:
                on.setdefault(v, set()).add(g)
        placed.update(frozenset(e) for e in zip(path, path[1:]))


def _bridge_path(adj, on, comp) -> list:
    """A path through the component ``comp`` of a bridge between two
    distinct attachments, as a vertex list with the attachments at its
    ends: a breadth-first search from one attachment into the component,
    stopped at a vertex next to another attachment."""
    a = next(w for w in adj[comp[0]] if w in on)
    start = comp[0]
    prev = {start: a}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w in on:
                if w != a:
                    path = [w, v]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    return path
            elif w not in prev:
                prev[w] = v
                queue.append(w)
    raise AssertionError("a bridge of a biconnected graph has two attachments")


_ENDPOINT_SHAPES = {"h": "h <x> <y>", "d": "d <id>"}


def _xedge_record(path, lineno: int, line: str):
    """The two endpoint refs of an ``xedge`` line of an expanded-grid file."""
    toks = line.split()
    keys, at = [], 1
    for _ in range(2):
        key = toks[at] if at < len(toks) else None
        if key not in _ENDPOINT_SHAPES:
            raise malformed_line(path, lineno, line,
                                 "xedge <endpoint> <endpoint>")
        keys.append(key)
        at += len(_ENDPOINT_SHAPES[key].split())
    shape = " ".join(["xedge"] + [_ENDPOINT_SHAPES[k] for k in keys])
    vals = iter(record_ints(path, lineno, line, shape))
    return tuple((next(vals), next(vals)) if k == "h" else ("d", next(vals))
                 for k in keys)


def plain(g: GridGraph) -> ExpandedGrid:
    """The grid itself, viewed as an expanded grid without duplicates."""
    return ExpandedGrid(g)


class XSpanningTree:
    """A spanning tree over all vertices of an expanded grid.

    Edges may be host edges (by canonical id) or extra edges (by index).
    Unweighted depth drives ancestor queries; ``wdepth`` accumulates edge
    lengths for path-length computations.
    """

    def __init__(self, grid: ExpandedGrid, host_edge_ids, xedge_indices,
                 root_ref=None):
        self.grid = grid
        host = grid.host
        self.host_edge_mask = np.zeros(host.num_edges, dtype=bool)
        hids = np.sort(_edge_id_array(host_edge_ids, host.num_edges))
        if (hids[1:] == hids[:-1]).any():
            raise GridCycleError("duplicate host edge ids")
        self.host_edge_mask[hids] = True
        self.xedge_indices = tuple(sorted(
            _integer_ids(list(xedge_indices)).tolist()))
        if len(set(self.xedge_indices)) != len(self.xedge_indices):
            raise GridCycleError("duplicate extra-edge indices")
        for i in self.xedge_indices:
            if not 0 <= i < len(grid.xedges):
                raise OutOfRangeError(f"no extra edge with index {i}")
        nn = grid.num_nodes
        total = len(hids) + len(self.xedge_indices)
        if total != nn - 1:
            raise GridCycleError(
                f"spanning tree needs {nn - 1} edges, got {total}")
        if root_ref is None:
            root_ref = (1, 1)
        self.root_ref = root_ref
        ridx = grid.ref_index(root_ref)

        parent, depth, _, _ = _bfs(nn, *self._edge_endpoints(hids), ridx)
        if (depth < 0).any():
            raise GridCycleError("edge set does not span the expanded grid")
        self.parent_idx = parent
        self.depth_arr = depth
        xs, ys = grid.node_positions()
        self.tables = AncestorTables(parent, depth, xs, ys)
        self._ranges = None

    def _edge_endpoints(self, hids):
        """int32 node indices (ua, ub) of the tree edges: the host edges
        ``hids``, then the extra edges in ``xedge_indices`` order."""
        grid = self.grid
        ua, ub = grid.host.edge_endpoint_indices(hids)
        xa = [grid.ref_index(grid.xedges[i][0]) for i in self.xedge_indices]
        xb = [grid.ref_index(grid.xedges[i][1]) for i in self.xedge_indices]
        return (np.concatenate([ua, np.asarray(xa, dtype=np.int32)]),
                np.concatenate([ub, np.asarray(xb, dtype=np.int32)]))

    @staticmethod
    def from_host_tree(t: SpanningTree, grid: ExpandedGrid | None = None
                       ) -> "XSpanningTree":
        if grid is None:
            grid = plain(t.host)
        return XSpanningTree(grid, t.tree_edge_ids(), [], t.root)

    # -- basics --------------------------------------------------------------

    def host_chord_ids(self) -> np.ndarray:
        return np.nonzero(~self.host_edge_mask)[0]

    def contains_host_edge(self, eid: int) -> bool:
        return bool(self.host_edge_mask[eid])

    def _preorder_ranges(self) -> "_TreeRanges":
        """The tree's DFS preorder and every subtree as a preorder range,
        with each node's parent edge; computed once and shared by every
        contraction of this tree."""
        if self._ranges is None:
            self._ranges = _TreeRanges.of(self)
        return self._ranges

    def wdepth(self) -> np.ndarray:
        """Length-weighted depth (sum of edge lengths on the root path)."""
        r = self._preorder_ranges()
        return r.root_sums(r.edge_length)

    def path_hits(self, u, v, flags) -> np.ndarray:
        """Whether each tree path u..v holds a flagged node: with F the
        flag counts of root paths and w the LCA, it holds F(u) + F(v) -
        2 F(w) + flag(w).  Stacked rows of ``flags`` share one LCA."""
        w = self.tables.lca(u, v)
        flags = np.asarray(flags)
        F = np.apply_along_axis(self._preorder_ranges().root_sums, -1, flags)
        return F[..., u] + F[..., v] - 2 * F[..., w] + flags[..., w] > 0

    def path_refs(self, ref_u, ref_v) -> list:
        """Tree path between two vertices, as an inclusive reference list."""
        grid = self.grid
        path = tree_path(self.parent_idx, self.depth_arr,
                         grid.ref_index(ref_u), grid.ref_index(ref_v))
        return [grid.index_ref(i) for i in path]


def lstar(t: XSpanningTree, h: ExpandedGrid | None = None) -> int:
    """Sum of fundamental-cycle perimeters over the host chords of t.

    Perimeters bound the host coordinates and duplicate bases on each cycle;
    chords among the extra edges are excluded.  On a plain grid (no
    duplicates, no extra edges) t is a host spanning tree, and the boxes
    come from its dual tree; otherwise they are folded through the lifted
    box tables.
    """
    if h is not None and h is not t.grid:
        raise GridCycleError("tree does not belong to the given expanded grid")
    grid = t.grid
    chords = t.host_chord_ids()
    if len(chords) == 0:
        return 0
    if not grid.duplicates and not grid.xedges:
        n = grid.host.n
        child, boxes = _dual_fold(n, chords, lambda: _face_boxes(n))
        return int(_box_perimeters(boxes, child).sum())
    ua, ub = grid.host.edge_endpoint_indices(chords)
    return int(t.tables.path_perimeters(ua, ub).sum())


def xperimeter(h: ExpandedGrid, walk) -> int:
    """Perimeter of the box bounding a closed walk's positions."""
    walk = list(walk)
    if not walk:
        raise EmptyCycleError("cannot bound an empty walk")
    pos = [h.ref_position(r) for r in walk]
    xs = [p[0] for p in pos]
    ys = [p[1] for p in pos]
    return 2 * (max(xs) - min(xs)) + 2 * (max(ys) - min(ys))


def walk_length(t: XSpanningTree, walk) -> int:
    """Total edge length of a closed walk whose steps are tree edges or host
    edges.  A step along a tree edge counts that edge's length; a tree has
    no parallel edges, so the edge is its child end's parent edge."""
    grid = t.grid
    host = grid.host
    par = t.parent_idx
    lengths = t._preorder_ranges().edge_length
    total = 0
    m = len(walk)
    for i in range(m):
        u, v = walk[i], walk[(i + 1) % m]
        iu, iv = grid.ref_index(u), grid.ref_index(v)
        if iu != iv and (par[iu] == iv or par[iv] == iu):
            total += int(lengths[iu if par[iu] == iv else iv])
            continue
        pu, pv = grid.ref_position(u), grid.ref_position(v)
        if not _is_dup_ref(u) and not _is_dup_ref(v) and \
                abs(pu[0] - pv[0]) + abs(pu[1] - pv[1]) == 1:
            total += 1
        else:
            total += host.boundary_distance(pu, pv)
    return total


# -- contraction -------------------------------------------------------------


class _TreeRanges(NamedTuple):
    """A rooted tree laid out along one DFS preorder.

    Node v's subtree is the preorder range ``[pre[v], pre[v] + size[v])``
    (the Euler-tour technique of Tarjan and Vishkin).  ``edge[v]`` codes
    v's parent edge: a host edge id, or ``num_edges`` plus an extra-edge
    index; -1 at the root.  ``edge_length`` is that edge's length.  The
    arrays are int32, except ``edge``, which holds edge ids and is int64.
    """

    order: np.ndarray
    pre: np.ndarray
    size: np.ndarray
    edge: np.ndarray
    edge_length: np.ndarray

    def root_sums(self, values) -> np.ndarray:
        """Every node's sum of ``values`` (one per node) over its root path,
        itself included: a node's value counts on its preorder range, and
        one cumulative sum adds up the ranges."""
        values = np.asarray(values, dtype=np.int64)
        diff = np.zeros(len(self.pre) + 1, dtype=np.int64)
        diff[self.pre] = values
        np.subtract.at(diff, self.pre + self.size, values)
        return np.cumsum(diff, out=diff)[self.pre]

    @staticmethod
    def of(t: XSpanningTree) -> "_TreeRanges":
        grid = t.grid
        nn = grid.num_nodes
        par, depth = t.parent_idx, t.depth_arr
        root = grid.ref_index(t.root_ref)
        idx = np.arange(nn, dtype=np.int32)
        pre = np.empty(nn, dtype=np.int32)
        order = _preorder(par, root)
        pre[order] = idx
        # The preorder of the tree relabelled v -> nn-1-v visits every
        # node's children in reverse, so reversed it is the postorder.
        flip = _preorder(nn - 1 - par[::-1], nn - 1 - root)
        post = np.empty(nn, dtype=np.int32)
        post[nn - 1 - flip[::-1]] = idx
        size = post - pre + depth + 1
        del idx, flip, post

        hids = np.nonzero(t.host_edge_mask)[0]
        ua, ub = t._edge_endpoints(hids)
        code = np.concatenate([hids, grid.host.num_edges
                               + np.asarray(t.xedge_indices, dtype=np.int64)])
        length = np.concatenate([np.ones(len(hids), dtype=np.int32),
                                 np.asarray([grid.xedge_lengths[i]
                                             for i in t.xedge_indices],
                                            dtype=np.int32)])
        child = np.where(par[ub] == ua, ub, ua)
        edge = np.full(nn, -1, dtype=np.int64)
        edge_length = np.zeros(nn, dtype=np.int32)
        edge[child] = code
        edge_length[child] = length
        return _TreeRanges(order, pre, size, edge, edge_length)


def _preorder(parent: np.ndarray, root: int) -> np.ndarray:
    """DFS preorder of the tree given by ``parent`` (``parent[root] ==
    root``), visiting every node's children by ascending index."""
    nn = len(parent)
    kids = np.nonzero(parent != np.arange(nn))[0]
    return depth_first_order(_adjacency(parent[kids], kids, nn), root,
                             return_predecessors=False)


def contract(h: ExpandedGrid, t: XSpanningTree, sub: SubgridRef
             ) -> tuple[ExpandedGrid, XSpanningTree]:
    """Contract an expanded grid and its spanning tree to a subgrid.

    Takes the minimal subtree of t containing all subgrid vertices,
    suppresses outside degree-2 vertices (chains become extra edges), and
    demotes outside branch vertices to duplicates based at the L1-nearest
    subgrid boundary vertex.  Output host coordinates are shifted to
    1..side; the shift is recorded in the result's ``origin``.

    The Steiner tree comes from t's preorder ranges, computed once per tree
    and shared by all its contractions: a subtree's count of subgrid
    vertices is one prefix-sum difference, and each kept vertex finds its
    nearest kept ancestor by pointer jumping.  No step runs per node or per
    depth level; only the outside branch vertices and the extra edges are
    visited one by one.  Extra edges come in the order of a walk over the
    kept vertices by index, each emitting its chains toward the subgrid's
    lower-left corner first, then by host edge id, then by extra-edge
    index.  The result is validated as any expanded grid is, its
    drawability included: the bridges of its boundary cycle, one pairwise
    sector test and a path-addition planarity test per duplicate component
    (:meth:`ExpandedGrid.is_drawable`).
    """
    host = h.host
    n = host.n
    if not (1 <= sub.x_lo <= sub.x_hi <= n and 1 <= sub.y_lo <= sub.y_hi <= n):
        raise OutOfRangeError(f"{sub} is not a subgrid of the {n}-grid")
    if sub.x_hi - sub.x_lo != sub.y_hi - sub.y_lo:
        raise OutOfRangeError(f"{sub} is not square")
    if t.grid is not h:
        raise GridCycleError("tree does not belong to the given expanded grid")
    side = sub.side
    if side == n:
        return h, t
    x_off, y_off = sub.x_lo - 1, sub.y_lo - 1
    out_host = GridGraph(side)
    if side == 1:
        out_grid = ExpandedGrid(out_host, origin=(x_off, y_off))
        return out_grid, XSpanningTree(out_grid, [], [], (1, 1))

    r = t._preorder_ranges()
    par, depth = t.parent_idx, t.depth_arr
    nn = h.num_nodes
    nv = host.num_vertices
    marked = np.zeros(nn, dtype=bool)
    marked[:nv].reshape(n, n)[sub.y_lo - 1:sub.y_hi,
                              sub.x_lo - 1:sub.x_hi] = True

    # Steiner subtree: keep tree edges with marked vertices on both sides.
    cs = np.zeros(nn + 1, dtype=np.int64)
    np.cumsum(marked[r.order], out=cs[1:])
    cnt = cs[r.pre + r.size] - cs[r.pre]
    steiner = (cnt >= 1) & (cnt <= side * side - 1)
    kids = np.nonzero(steiner)[0]
    deg = (np.bincount(kids, minlength=nn)
           + np.bincount(par[kids], minlength=nn))
    keep = marked | (deg >= 3)

    # The Steiner tree on its own nodes, in ascending node order; its top
    # is the one node without a Steiner parent edge.
    s_nodes = np.nonzero(deg)[0]
    loc = np.empty(nn, dtype=np.int64)
    loc[s_nodes] = np.arange(len(s_nodes))
    top = int(loc[s_nodes[~steiner[s_nodes]][0]])
    s_par = loc[par[s_nodes]]
    s_par[top] = top
    s_keep = keep[s_nodes]
    # Pointer jumping to the first kept node at or above each node, and to
    # the first node whose parent is kept.
    s_idx = np.arange(len(s_nodes))
    kept_at = np.where(s_keep, s_idx, s_par)
    below_kept = np.where(s_keep[s_par], s_idx, s_par)
    s_depth = depth[s_nodes]
    for _ in range(int(s_depth.max() - s_depth[top]).bit_length()):
        kept_at = kept_at[kept_at]
        below_kept = below_kept[below_kept]

    # One chain per kept node below the top, up to its nearest kept
    # ancestor.  Below an unkept top, the two chains that reach it join.
    low = np.nonzero(s_keep)[0]
    low = low[low != top]
    up = kept_at[s_par[low]]
    join = (up == top) & ~s_keep[top]
    corner = r.pre[(sub.y_lo - 1) * n + sub.x_lo - 1]

    def toward_corner(v):
        """Whether v's parent edge leads from v toward the lower-left
        corner: the corner lies outside v's subtree."""
        return (corner < r.pre[v]) | (corner >= r.pre[v] + r.size[v])

    g_low, g_up = s_nodes[low], s_nodes[up]
    # A chain is emitted from its endpoint of lower index, along the edge
    # it starts with there: the chain's first edge or the parent edge of
    # the node just below its upper end.
    from_low = low < up
    first = np.where(from_low, g_low, s_nodes[below_kept[low]])
    host_edge = ((depth[g_low] - depth[g_up] == 1)
                 & (r.edge[g_low] < host.num_edges)
                 & marked[g_low] & marked[g_up])
    chain = ~host_edge & ~join
    a = np.where(from_low, g_low, g_up)[chain]
    b = np.where(from_low, g_up, g_low)[chain]
    toward = (toward_corner(first) == from_low)[chain]
    edge = r.edge[first[chain]]
    if join.any():
        ja, jb = np.sort(g_low[join])
        a, b = np.append(a, ja), np.append(b, jb)
        toward = np.append(toward, toward_corner(ja))
        edge = np.append(edge, r.edge[ja])
    order = np.lexsort((edge, ~toward, a))
    a, b = a[order], b[order]

    # Host edges between subgrid vertices, renumbered in the side-grid.
    ends = host.edge_endpoint_indices(r.edge[g_low[host_edge]])
    out_host_edges = out_host.edge_ids(
        *((v // n - y_off) * side + v % n - x_off for v in ends))

    # Branch vertices outside the subgrid become duplicates.
    xs, ys = t.tables.xs, t.tables.ys
    sub_local = SubgridRef(1, side, 1, side)
    dup_info = []
    for v in np.nonzero(keep & ~marked)[0].tolist():
        base = sub_local.clamp((int(xs[v]) - x_off, int(ys[v]) - y_off))
        dup_info.append((out_host.boundary_position(base), v, base))
    dup_info.sort()
    dup_of = {}
    duplicates = []
    slot_counter = {}
    for k, (_, v, base) in enumerate(dup_info):
        slot = slot_counter.get(base, 0)
        slot_counter[base] = slot + 1
        duplicates.append(Duplicate(k, base, slot))
        dup_of[v] = k

    def out_ref(v):
        if v in dup_of:
            return ("d", dup_of[v])
        return (int(xs[v]) - x_off, int(ys[v]) - y_off)

    out_xedges = [(out_ref(u), out_ref(v))
                  for u, v in zip(a.tolist(), b.tolist())]
    out_grid = ExpandedGrid(out_host, duplicates, out_xedges,
                            origin=(x_off, y_off))
    out_tree = XSpanningTree(out_grid, out_host_edges,
                             range(len(out_xedges)), (1, 1))
    return out_grid, out_tree


# -- rerouted walks and winding numbers ---------------------------------------


def reroute_walk(t: XSpanningTree, h: ExpandedGrid, i: int) -> list:
    """The concentric cycle C_i with every non-tree edge replaced by the tree
    path between its endpoints; the result is a closed walk inside t."""
    if h is not t.grid:
        raise GridCycleError("tree does not belong to the given expanded grid")
    ring = h.host.concentric_cycle(i)
    walk: list = []
    m = len(ring)
    for j in range(m):
        u, v = ring[j], ring[(j + 1) % m]
        eid = h.host.edge_id(u, v)
        if t.contains_host_edge(eid):
            walk.append(u)
        else:
            walk.extend(t.path_refs(u, v)[:-1])
    return walk


def _scaled_polyline(h: ExpandedGrid, walk) -> list[tuple[int, int]]:
    """Vertex chain of the drawn walk, scaled by 4 so the 0.25 boundary
    offset becomes integral.

    Host steps are unit segments; every other step is routed just outside
    the boundary along the shorter boundary arc between the endpoint bases
    (ties broken counterclockwise).
    """
    host = h.host
    n = host.n
    ring = host.boundary_cycle()
    per = len(ring)

    def contour(pos: Coord) -> tuple[int, int]:
        x, y = pos
        cx, cy = 4 * x, 4 * y
        if x == 1:
            cx = 3
        if x == n:
            cx = 4 * n + 1
        if y == 1:
            cy = 3
        if y == n:
            cy = 4 * n + 1
        return cx, cy

    pts: list[tuple[int, int]] = []

    def emit(p):
        if not pts or pts[-1] != p:
            pts.append(p)

    m = len(walk)
    for j in range(m):
        u, v = walk[j], walk[(j + 1) % m]
        pu, pv = h.ref_position(u), h.ref_position(v)
        su = (4 * pu[0], 4 * pu[1])
        sv = (4 * pv[0], 4 * pv[1])
        emit(su)
        if pu == pv:
            continue
        host_step = (not _is_dup_ref(u) and not _is_dup_ref(v)
                     and abs(pu[0] - pv[0]) + abs(pu[1] - pv[1]) == 1)
        if host_step:
            continue
        a = host.boundary_position(pu)
        b = host.boundary_position(pv)
        fwd = (b - a) % per
        step = 1 if fwd <= per - fwd else -1
        emit(contour(pu))
        k = a
        while k != b:
            k = (k + step) % per
            emit(contour(ring[k]))
        emit(sv)
    return pts


def winding_number(walk, z0, h: ExpandedGrid) -> int:
    """Signed winding number of the drawn closed walk around the point z0.

    z0 must have quarter-integer coordinates (face centres do) and must not
    lie on the drawn curve.
    """
    zx4, zy4 = (Fraction(c) * 4 for c in z0)
    if zx4.denominator != 1 or zy4.denominator != 1:
        raise DegeneratePointError(
            f"reference point {z0} must have quarter-integer coordinates")
    zx, zy = int(zx4), int(zy4)
    pts = _scaled_polyline(h, list(walk))
    if len(pts) < 2:
        if pts and pts[0] == (zx, zy):
            raise DegeneratePointError(f"{z0} lies on the curve")
        return 0
    p = np.array(pts + [pts[0]], dtype=np.int64)
    px, py = p[:-1, 0], p[:-1, 1]
    qx, qy = p[1:, 0], p[1:, 1]
    cross = (qx - px) * (zy - py) - (zx - px) * (qy - py)
    dot = (zx - px) * (zx - qx) + (zy - py) * (zy - qy)
    on_seg = (cross == 0) & (dot <= 0)
    if on_seg.any():
        raise DegeneratePointError(f"{z0} lies on the drawn curve")
    up = (py <= zy) & (qy > zy) & (cross > 0)
    down = (qy <= zy) & (py > zy) & (cross < 0)
    return int(up.sum()) - int(down.sum())


# -- long edges and the lower bound -------------------------------------------


def find_long_edge(h: ExpandedGrid, t: XSpanningTree, i: int) -> int:
    """A chord of the concentric cycle C_i whose tree path crosses the
    central band of the 5x5 tiling; returns its host edge id.

    Such a chord exists for every spanning tree; failure to find one is a
    counterexample to the checked claim and raises loudly.
    """
    return _long_edges(h, t, [i])[0]


def _ring_steps(n: int, layers):
    """Every step u -> v of the concentric cycles C_i, i in ``layers``, in
    the order of :meth:`GridGraph.concentric_cycle`, as arrays (ring, u, v):
    the step's position in ``layers`` and its two vertex indices."""
    us = []
    for i in layers:
        lo, hi = i - 1, n - i  # 0-based
        r = np.arange(hi - lo)
        x = np.concatenate([lo + r, np.full_like(r, hi), hi - r,
                            np.full_like(r, lo)])
        # Counterclockwise from (i, i), y runs one side behind x.
        us.append(np.roll(x, hi - lo) * n + x)
    ring = np.repeat(np.arange(len(us)), [len(u) for u in us])
    return (ring, np.concatenate(us),
            np.concatenate([np.roll(u, -1) for u in us]))


def _long_edges(h: ExpandedGrid, t: XSpanningTree, layers) -> list[int]:
    """:func:`find_long_edge` for every index in the sequence ``layers``, in
    one pass: the chords of all the rings share one LCA and one flag count
    per band, and each layer gets its first long chord in ring order.  The
    first layer without a chord, or without a long one, raises."""
    host = h.host
    n = host.n
    if n % 5 != 0:
        raise OutOfRangeError(f"side {n} is not divisible by 5")
    m = n // 5
    for i in layers:
        if not 1 <= i <= m:
            raise OutOfRangeError(f"layer index {i} outside [1, {m}]")
    if h is not t.grid:
        raise GridCycleError("tree does not belong to the given expanded grid")
    for i in layers:
        if not isinstance(i, (int, np.integer)):
            raise LayerError(f"layer {i} of the {n}-grid is not a cycle")
    ring, ua, ub = _ring_steps(n, layers)
    eids = host.edge_ids(ua, ub)
    chord = ~t.host_edge_mask[eids]
    ring, ua, ub, eids = ring[chord], ua[chord], ub[chord], eids[chord]
    # Per axis (rows, then columns): the nodes in the central band, and the
    # chords with both ends in the outer band on one side.
    band, outer = [], []
    for c in (t.tables.ys, t.tables.xs):
        band.append((c > 2 * m) & (c <= 3 * m))
        cu, cv = c[ua], c[ub]
        outer.append(((cu <= m) & (cv <= m)) | ((cu > n - m) & (cv > n - m)))
    long_chord = (np.array(outer)
                  & t.path_hits(ua, ub, np.array(band))).any(axis=0)
    # Steps come grouped by ring, so a ring's first entry in any selection
    # is its first in ring order.
    chords = np.bincount(ring, minlength=len(layers))
    first = np.full(len(layers), -1)
    hit_ring, at = np.unique(ring[long_chord], return_index=True)
    first[hit_ring] = eids[long_chord][at]
    for i, c, e in zip(layers, chords.tolist(), first.tolist()):
        if c == 0:
            raise CounterexampleError(
                f"cycle C_{i} of the {n}-grid has no chords for this tree")
        if e < 0:
            raise CounterexampleError(
                f"no long chord on C_{i} of the {n}-grid: the long-path "
                "existence claim failed on this tree")
    return first.tolist()


@dataclass
class TileReport:
    tile: int
    sub_lstar: int
    sub_bound: Fraction


@dataclass
class LowerBoundReport:
    """Outcome of the perimeter-sum lower-bound check."""

    n: int
    form: str
    lstar: int
    bound: Fraction
    witnesses: list = field(default_factory=list)
    tiles: list = field(default_factory=list)
    decomposition_lhs: Fraction | None = None
    sub_report: "LowerBoundReport | None" = None

    @property
    def margin(self) -> Fraction:
        return Fraction(self.lstar) - self.bound

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "form": self.form,
            "lstar": self.lstar,
            "bound_num": self.bound.numerator,
            "bound_den": self.bound.denominator,
            "margin": float(self.margin),
            "witnesses": [{"i": i, "edge_id": e} for i, e in self.witnesses],
        }
        if self.tiles:
            out["tiles"] = [{"tile": tr.tile, "lstar": tr.sub_lstar,
                             "bound_num": tr.sub_bound.numerator,
                             "bound_den": tr.sub_bound.denominator}
                            for tr in self.tiles]
        if self.decomposition_lhs is not None:
            out["decomposition_num"] = self.decomposition_lhs.numerator
            out["decomposition_den"] = self.decomposition_lhs.denominator
        if self.sub_report is not None:
            out["sub"] = self.sub_report.to_json()
        return out


def _log5_floor(n: int) -> int:
    k = 0
    p = 5
    while p <= n:
        k += 1
        p *= 5
    return k


def _is_power_of_5(n: int) -> bool:
    while n % 5 == 0:
        n //= 5
    return n == 1


def lemma_lower_check(h: ExpandedGrid, t: XSpanningTree) -> LowerBoundReport:
    """Check the perimeter-sum lower bound and report the decomposition.

    Power-of-five hosts get the sharp form (2/25) n^2 log5 n together with
    the 25 tile contractions and one long-chord witness per concentric layer
    index; other sizes get the (2/625) n^2 floor(log5 n) form via contraction
    to the largest power-of-five subgrid.  A violated bound raises
    :class:`CounterexampleError`.
    """
    n = h.host.n
    if _is_power_of_5(n):
        k = _log5_floor(n)
        bound = Fraction(2, 25) * n * n * k
        ls = lstar(t)
        report = LowerBoundReport(n, "sharp", ls, bound)
        if n >= 5:
            layers = range(1, n // 5 + 1)
            report.witnesses = list(zip(layers, _long_edges(h, t, layers)))
        if k >= 2:
            sub_bound = Fraction(2, 25) * 5 ** (2 * (k - 1)) * (k - 1)
            for tile_no, tile in enumerate(h.host.tile_5x5(), start=1):
                sg, st = contract(h, t, tile)
                sub_ls = lstar(st)
                report.tiles.append(TileReport(tile_no, sub_ls, sub_bound))
                if sub_ls < sub_bound:
                    raise CounterexampleError(
                        f"tile {tile_no} of the {n}-grid violates the "
                        f"perimeter-sum bound: {sub_ls} < {sub_bound}")
            report.decomposition_lhs = (25 * sub_bound
                                        + 2 * Fraction(5) ** (k - 1) * 5 ** (k - 1))
        if Fraction(ls) < bound:
            raise CounterexampleError(
                f"perimeter-sum bound violated on the {n}-grid: "
                f"{ls} < {bound}")
        return report
    k = _log5_floor(n)
    bound = Fraction(2, 625) * n * n * k
    ls = lstar(t)
    N = 5 ** k
    sg, st = contract(h, t, SubgridRef(1, N, 1, N))
    sub_report = lemma_lower_check(sg, st)
    report = LowerBoundReport(n, "general", ls, bound, sub_report=sub_report)
    if ls < sub_report.lstar:
        raise CounterexampleError(
            f"perimeter monotonicity violated: {ls} < {sub_report.lstar}")
    if Fraction(ls) < bound:
        raise CounterexampleError(
            f"perimeter-sum bound violated on the {n}-grid: {ls} < {bound}")
    return report
