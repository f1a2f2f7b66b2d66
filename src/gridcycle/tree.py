"""Spanning trees of grids and their fundamental-cycle statistics.

This module is the rooted-tree core of the package.  One BFS (``_bfs``)
roots host trees, the dual tree and expanded-grid trees; one explicit parent
walk (:func:`tree_path`) traces their paths; one lifting climb
(:class:`AncestorTables`) answers the LCAs and the min/max folds of path
boxes of expanded-grid trees.
Sums along root paths, such as weighted depths and flag counts, come from
the preorder layout of expanded-grid trees instead (``expanded._TreeRanges``).

Every vertex-indexed array of the core is int32: parents, depths, visit
orders, coordinates, face ids and every lifted table, which is why
:class:`~gridcycle.grid.GridGraph` stops at side ``grid.MAX_SIDE``.  Edge
ids stay int64 (2n(n-1) passes 2^31 at n = 32769), and so do the per-chord
lengths and perimeters of :class:`CycleStats`, whose depth sums are formed
in int64.

A :class:`SpanningTree` holds parent/depth arrays over the host grid's
vertex indexing and its tree-edge mask.  The chords of a plane spanning
tree form a spanning tree of the faces, and a chord's cycle encloses the
unit squares of its subtree when that tree is rooted at the outer face: one
fold over the subtrees (:func:`_dual_fold`) gives every cycle's box and
length, in O(n^2) memory.  Lifting tables serve only expanded-grid trees,
whose faces are not unit squares (:class:`AncestorTables`).

Tree files and cycle-statistics CSVs are written by one integer-row encoder,
``_write_rows``, which turns whole columns into ASCII through a table of
four-digit words instead of formatting each integer in Python.
:meth:`SpanningTree.from_file` parses a file laid out as
:meth:`SpanningTree.to_file` writes it straight from its bytes, one digit
position at a time over all lines, and reads any other layout line by line,
so that every malformed line is still named by its number.

Cycle conventions: an "ordered vertex cycle" is a list of distinct vertices;
consecutive entries (and the last-to-first pair) are the cycle's edges, so
the cycle's length equals the list's length.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    EmptyCycleError,
    MalformedFileError,
    NoChordsError,
    NotAChordError,
    NotASpanningTreeError,
    UnknownEdgeError,
)
from .grid import Coord, Edge, GridGraph

# Rows encoded per write by :func:`_write_rows`, for :meth:`CycleStats.to_csv`
# and :meth:`SpanningTree.to_file`.
_CSV_CHUNK = 1 << 16


class AncestorTables:
    """Binary-lifting tables over a rooted tree given by parent/depth arrays.

    ``parent[root] == root``.  Every path query climbs the lifting table
    ``up`` through :meth:`_climb`: LCAs, and the coordinate minima and
    maxima that bound path boxes, folded from lifted tables built on first
    use.  All query methods are vectorized.  The node coordinates
    ``xs``/``ys`` are needed only by :meth:`path_boxes`.

    Every table is int32.  Fancy indexing by an index array of any dtype
    but intp (int64) casts it on every gather, at a cost above the gather's
    own on small trees, so the tables are built with ``take`` and the nodes
    being climbed are held as intp arrays.
    """

    def __init__(self, parent, depth, xs=None, ys=None):
        self.parent = np.asarray(parent, dtype=np.int32)
        self.depth = np.asarray(depth, dtype=np.int32)
        self.xs = None if xs is None else np.asarray(xs, dtype=np.int32)
        self.ys = None if ys is None else np.asarray(ys, dtype=np.int32)
        maxd = int(self.depth.max(initial=0))
        self.levels = max(1, maxd.bit_length())
        up = [self.parent]
        for _ in range(1, self.levels):
            up.append(up[-1].take(up[-1]))
        self.up = up
        self._lifted = {}

    # -- core lifting ------------------------------------------------------

    def _climb(self, u, d, tables=(), acc=()):
        """p^d(u), elementwise.  On the way, every acc[i] is folded with
        tables[i]'s values over the half-open node run u, ..., p^(d-1)(u)."""
        u = np.array(u, dtype=np.intp, copy=True)
        d = np.asarray(d, dtype=np.int32)
        for k in range(self.levels):
            mask = ((d >> k) & 1).astype(bool)
            if mask.any():
                c = u[mask]
                for (op, tab), a in zip(tables, acc):
                    a[mask] = op(a[mask], tab[k][c])
                u[mask] = self.up[k][c]
        return u

    def ancestor(self, u, d):
        """p^d(u), elementwise."""
        return self._climb(u, d)

    def lca(self, u, v):
        du, dv = self.depth[u], self.depth[v]
        u = self.ancestor(u, np.maximum(du - dv, 0))
        v = self.ancestor(v, np.maximum(dv - du, 0))
        for k in range(self.levels - 1, -1, -1):
            move = (self.up[k][u] != self.up[k][v])
            if move.any():
                u[move] = self.up[k][u[move]]
                v[move] = self.up[k][v[move]]
        return np.where(u == v, u, self.parent[u])

    # -- path folds --------------------------------------------------------

    def _table(self, key, op, values):
        """(op, table): level k of the table folds ``values`` with ``op``
        over the run of 2^k nodes climbing from each node."""
        if key not in self._lifted:
            tab = [np.asarray(values)]
            for k in range(1, self.levels):
                tab.append(op(tab[-1], tab[-1].take(self.up[k - 1])))
            self._lifted[key] = tab
        return op, self._lifted[key]

    def _fold(self, u, v, tables):
        """Every (op, table) folded over the tree paths u..v: the LCA's
        value, then one climb from each end to just below the LCA."""
        w = self.lca(u, v)
        dw = self.depth[w]
        acc = [np.array(tab[0][w]) for _, tab in tables]
        self._climb(u, self.depth[u] - dw, tables, acc)
        self._climb(v, self.depth[v] - dw, tables, acc)
        return acc

    def path_boxes(self, u, v):
        """Bounding boxes (xmin, xmax, ymin, ymax) of the tree paths u..v."""
        return tuple(self._fold(u, v, [
            self._table("xmin", np.minimum, self.xs),
            self._table("xmax", np.maximum, self.xs),
            self._table("ymin", np.minimum, self.ys),
            self._table("ymax", np.maximum, self.ys)]))

    def path_perimeters(self, u, v):
        xmin, xmax, ymin, ymax = self.path_boxes(u, v)
        return 2 * (xmax - xmin) + 2 * (ymax - ymin)


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
        """Header plus one row per chord, in the ``csv`` module's default
        dialect (CRLF line ends)."""
        with open(path, "wb") as fh:
            fh.write(b"edge_id,length,perimeter\r\n")
            _write_rows(fh, (b",", b",", b"\r\n"), self.edge_ids,
                        self.lengths, self.perimeters)


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

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(g: GridGraph, edge_ids, root: Coord) -> "SpanningTree":
        """Validate an edge-id set and build the rooted tree.

        An id that is not an integer raises :class:`UnknownEdgeError`
        naming the first such id.  Then duplicate ids raise
        :class:`NotASpanningTreeError` with cause ``cardinality``, an id
        outside [0, num_edges) raises :class:`UnknownEdgeError` naming the
        smallest one, and an edge set that is not a spanning tree raises
        :class:`NotASpanningTreeError` with cause ``cardinality``, ``cyclic``
        or ``disconnected``.
        """
        g.check_vertex(root)
        if not isinstance(edge_ids, (Sequence, np.ndarray)):
            edge_ids = list(edge_ids)
        ne = g.num_edges
        ids = np.sort(_integer_ids(edge_ids))
        if (ids[1:] == ids[:-1]).any():
            raise NotASpanningTreeError("cardinality", "duplicate edge ids")
        ids = _edge_id_array(ids, ne)
        n = g.n
        nv = n * n
        if len(ids) != nv - 1:
            raise NotASpanningTreeError(
                "cardinality",
                f"spanning tree of the {n}-grid needs {nv - 1} edges, got {len(ids)}")
        mask = np.zeros(ne, dtype=bool)
        mask[ids] = True
        ua, ub = g.edge_endpoint_indices(ids)
        del ids
        parent_idx, depth_arr, _, _ = _bfs(nv, ua, ub, g.vertex_index(root))
        visited = depth_arr >= 0
        if not visited.all():
            inside = visited[ua] & visited[ub]
            ncomp = int(visited.sum())
            if int(inside.sum()) > ncomp - 1:
                raise NotASpanningTreeError("cyclic",
                                            "edge set contains a cycle")
            raise NotASpanningTreeError("disconnected",
                                        "edge set does not connect all vertices")
        del ua, ub, visited
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

        Deliberately does not use the dual fold, so it serves as an
        independent cross-check of its lengths and boxes.
        """
        eid = e.id if isinstance(e, Edge) else e
        eid = int(_edge_id_array([eid], self.host.num_edges)[0])
        if self.tree_edge_mask[eid]:
            raise NotAChordError(f"edge {eid} is a tree edge, not a chord")
        g = self.host
        edge = g.edge(eid)
        path = tree_path(self.parent_idx, self.depth_arr,
                         g.vertex_index(edge.a), g.vertex_index(edge.b))
        return [g.vertex_at(i) for i in path]

    def cycle_length(self, eid: int) -> int:
        """One chord's fundamental-cycle length, from a whole dual pass."""
        return int(self.cycle_lengths([eid])[0])

    def cycle_lengths(self, eids) -> np.ndarray:
        """Vectorized fundamental-cycle lengths for an array of chord ids.

        An id that is not an integer in [0, num_edges) raises
        :class:`UnknownEdgeError` naming the first such id.
        """
        eids = _edge_id_array(eids, self.host.num_edges)
        if self.tree_edge_mask[eids].any():
            raise NotAChordError("given edges include tree edges")
        chords = self.chord_ids()
        depth = self._outer_depths()
        child, (low,) = _dual_fold(self.n, chords,
                                   lambda: [_corner_depths(self.n, depth)])
        low = low[child[chords.searchsorted(eids)]]
        return self._lengths(depth, eids, low)

    def total_length(self) -> CycleStats:
        """Lengths and bounding-box perimeters of every chord's cycle."""
        g = self.host
        if g.n < 2:
            raise NoChordsError("the 1-grid has no chords")
        chords = self.chord_ids()
        depth = self._outer_depths()
        child, rows = _dual_fold(g.n, chords, lambda: [
            *_face_boxes(g.n), _corner_depths(g.n, depth)])
        perims = _box_perimeters(rows[:4], child)
        del rows[:4]  # freed before the lengths' temporaries exist
        lengths = self._lengths(depth, chords, rows[0][child])
        L = int(lengths.sum())
        P = int(perims.sum())
        count = len(chords)
        return CycleStats(chords, lengths, perims, L, P, count,
                          Fraction(L, count))

    def _outer_depths(self) -> np.ndarray:
        """Vertex depths from a root on the outer face: this tree's own
        root when it is peripheral, and (1, 1) otherwise."""
        if 1 in self.root or self.n in self.root:
            return self.depth_arr
        ua, ub = self.host.edge_endpoint_indices(self.tree_edge_ids())
        return _bfs(self.host.num_vertices, ua, ub, 0)[1]

    def _lengths(self, depth, eids, low) -> np.ndarray:
        """Cycle lengths of the chords ``eids`` whose LCAs have the depths
        ``low``, in int64, where the depth sums of a deep tree fit."""
        ua, ub = self.host.edge_endpoint_indices(eids)
        return depth[ua].astype(np.int64) + depth[ub] - low - low + 1

    # -- file format -------------------------------------------------------

    def to_file(self, path) -> None:
        """Write ``n <side>``, ``root <x> <y>``, then the tree edge ids in
        increasing order, one per line, every line ended by ``\\n``."""
        with open(path, "wb") as fh:
            fh.write(f"n {self.n}\nroot {self.root[0]} {self.root[1]}\n"
                     .encode())
            _write_rows(fh, (b"\n",), self.tree_edge_ids())

    @staticmethod
    def from_file(path) -> "SpanningTree":
        """Read a tree file.  A missing or malformed line raises
        :class:`MalformedFileError` naming the file and the line number.

        A file laid out as :meth:`to_file` writes it, two header lines and
        then only lines of ASCII digits, is parsed from its bytes; any other
        layout is read line by line as text."""
        with open(path, "rb") as fh:
            data = fh.read()
        head = data.split(b"\n", 2)
        if len(head) == 3 and all(map(_plain_line, head[:2])):
            ids = _digit_lines(head[2])
            if ids is not None:
                (n,) = record_ints(path, 1, head[0].decode(), "n <side>")
                rx, ry = record_ints(path, 2, head[1].decode(),
                                     "root <x> <y>")
                return SpanningTree.from_edges(GridGraph(n), ids, (rx, ry))
        with open(path) as fh:
            lines = fh.read().splitlines()

        def header(start, shape):
            """The index after the first non-blank line from lines[start]
            on, and that line's integers."""
            for i in range(start, len(lines)):
                if lines[i].strip():
                    return i + 1, record_ints(path, i + 1, lines[i], shape)
            raise missing_line(path, len(lines) + 1, shape)

        at, (n,) = header(0, "n <side>")
        at, (rx, ry) = header(at, "root <x> <y>")
        # int() of a stripped line reads what record_ints reads from a line
        # of one word, several times faster.
        ids = []
        for i in range(at, len(lines)):
            word = lines[i].strip()
            if word:
                try:
                    ids.append(int(word))
                except ValueError:
                    raise malformed_line(path, i + 1, lines[i],
                                         "<edge-id>") from None
        return SpanningTree.from_edges(GridGraph(n), ids, (rx, ry))


def _plain_line(line: bytes) -> bool:
    """Whether ``line`` (with no newline) is non-blank ASCII text that reads
    as the same single line in text mode."""
    text = line.decode() if line.isascii() else ""
    return bool(text.strip()) and text.splitlines() == [text]


def _digit_lines(body: bytes):
    """The int64 values of ``body`` when it is lines of 1 to 18 ASCII digits,
    each ended by a newline but perhaps the last; None for any other body.

    The values are folded one digit position at a time, counted from the
    line ends, over every line at once."""
    b = np.frombuffer(body, dtype=np.uint8)
    if not len(b):
        return np.empty(0, dtype=np.int64)
    ends = np.flatnonzero(b == ord("\n"))
    if b[-1] != ord("\n"):
        ends = np.append(ends, len(b))
    lens = np.diff(ends, prepend=-1) - 1
    if lens.min() < 1 or lens.max() > 18:
        return None
    digits = b - np.uint8(ord("0"))
    if np.count_nonzero(digits < 10) != lens.sum():
        return None
    ids = np.zeros(len(ends), dtype=np.int64)
    for j in range(1, int(lens.max()) + 1):
        d = digits[ends - j]
        if j > lens.min():
            d[lens < j] = 0
        ids += d * np.int64(10 ** (j - 1))
    return ids


def _integer_ids(eids) -> np.ndarray:
    """``eids`` as an integer array, of object dtype when numpy does not
    read it as one, after checking that every id is an integer; the first
    id that is not raises :class:`UnknownEdgeError`.  A bool is not an
    integer here, also in a sequence that numpy reads as integers."""
    ids = np.asarray(eids)
    if ids.dtype.kind in "iu" and (isinstance(eids, np.ndarray) or not
                                   {bool, np.bool_} & set(map(type, eids))):
        return ids
    ids = np.asarray(eids, dtype=object)
    for e in ids.ravel():
        if not isinstance(e, (int, np.integer)) or isinstance(e, bool):
            raise UnknownEdgeError(f"edge id {e!r} is not an integer")
    return ids


def _edge_id_array(eids, num_edges: int) -> np.ndarray:
    """``eids`` as an int64 array, after checking that every id is an
    integer (:func:`_integer_ids`) and then that every id is in
    [0, num_edges); the first id that is not raises
    :class:`UnknownEdgeError`."""
    ids = _integer_ids(eids)
    bad = (ids < 0) | (ids >= num_edges)
    if bad.any():
        e = ids.ravel()[bad.ravel().argmax()]
        raise UnknownEdgeError(f"edge id {e} is not a host edge")
    return ids.astype(np.int64, copy=False)


@functools.cache
def _digit_table() -> np.ndarray:
    """Four ASCII digit bytes per entry, as read-only uint32 words in memory
    order: entry k < 10^4 is k with its leading zeros replaced by NUL bytes
    (all four NUL for k = 0), and entry 10^4 + k is k with leading zeros.
    Built on first use, so that only programs that write rows hold it."""
    k = np.arange(10_000)[:, None]
    place = np.array([1000, 100, 10, 1])
    digits = (k // place % 10 + ord("0")).astype(np.uint8)
    lead = np.where(k >= place, digits, 0).astype(np.uint8)
    table = np.concatenate([lead, digits]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


_ZERO = np.frombuffer(b"0\0\0\0", dtype=np.uint32)[0]


def _write_rows(fh, seps, *columns) -> None:
    """Write one text row per index of the equal-length integer arrays
    ``columns`` to the binary file ``fh``: every value in decimal, each
    followed by its column's separator in ``seps`` (1 to 4 non-NUL bytes).

    ``_CSV_CHUNK`` rows at a time become a uint32 matrix of four-byte words:
    a value's base-10^4 groups, most significant first, are looked up in
    :func:`_digit_table` (the NUL-padded half for a value's leading group and
    the empty groups above it), and a separator is one NUL-padded word.
    Dropping every NUL byte of the matrix leaves the chunk's text.  A
    negative value, or a column that is not integer, raises
    :class:`ValueError`.
    """
    cols = [np.asarray(c) for c in columns]
    if len(seps) != len(cols) or not all(0 < len(s) <= 4 and b"\0" not in s
                                         for s in seps):
        raise ValueError("every column needs a separator of 1 to 4 bytes")
    for c in cols:
        if c.dtype.kind not in "iu" or c.ndim != 1 or len(c) != len(cols[0]):
            raise ValueError("rows need integer columns of one length")
        if len(c) and not 0 <= c.min() <= c.max() <= np.iinfo(np.int64).max:
            raise ValueError("cannot write a negative value or one past int64")
    words = [np.frombuffer(s.ljust(4, b"\0"), dtype=np.uint32)[0]
             for s in seps]
    table = _digit_table()
    for i in range(0, len(cols[0]), _CSV_CHUNK):
        block = [c[i:i + _CSV_CHUNK].astype(np.int64, copy=False)
                 for c in cols]
        widths = [(len(str(int(b.max()))) + 3) // 4 for b in block]
        out = np.empty((len(block[0]), sum(widths) + len(block)), np.uint32)
        at = 0
        for b, width, sep in zip(block, widths, words):
            q = b
            for k in range(at + width - 1, at, -1):
                q, g = np.divmod(q, 10_000)
                np.add(g, 10_000, out=g, where=q != 0)
                out[:, k] = table[g]
            out[:, at] = table[q]
            out[b == 0, at + width - 1] = _ZERO
            at += width
            out[:, at] = sep
            at += 1
        fh.write(out.tobytes().translate(None, b"\0"))


def _adjacency(rows, cols, nn: int) -> csr_matrix:
    """The nn x nn matrix with a 1 at every (rows[i], cols[i]), each row's
    columns in input order, in the float64/int32 layout that scipy's graph
    traversals take without a conversion."""
    indptr = np.zeros(nn + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=nn), out=indptr[1:])
    cols = cols[np.argsort(rows, kind="stable")].astype(np.int32, copy=False)
    return csr_matrix((np.ones(len(cols)), cols, indptr), shape=(nn, nn))


def _bfs(nv: int, ua, ub, root: int):
    """One unweighted BFS from root over the graph on nodes 0..nv-1 with
    edges {ua[i], ub[i]}.

    Returns the int32 parent and depth arrays (the root and unreached nodes
    are their own parents; unreached nodes get depth -1), the int32 visit
    order, and its level bounds: the nodes of depth d are
    order[ends[d-1]:ends[d]].
    """
    adj = _adjacency(np.concatenate([ua, ub]), np.concatenate([ub, ua]), nv)
    order, pred = breadth_first_order(adj, root, directed=True,
                                      return_predecessors=True)
    del adj
    parent = np.arange(nv, dtype=np.int32)
    parent[order[1:]] = pred[order[1:]]
    # BFS visits nodes in the order of their parents' visits, so parent
    # positions never decrease along the order, and depth d + 1 ends where
    # the nodes whose parents lie past depth d begin.  The searched value
    # is an int32 scalar: a Python int would cast ``up`` on every call.
    pos = np.empty(nv, dtype=np.int32)
    pos[order] = np.arange(len(order), dtype=np.int32)
    up = pos[parent[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(1 + int(up.searchsorted(np.int32(ends[-1]))))
    depth = np.full(nv, -1, dtype=np.int32)
    depth[order] = np.repeat(np.arange(len(ends), dtype=np.int32),
                             np.diff(ends, prepend=0))
    return parent, depth, order, ends


def _chord_faces(n: int, chords):
    """The two faces (int32) that each chord of the n-grid (n >= 2)
    separates, indexed as in :func:`_dual_fold`."""
    m = n - 1
    outer = m * m
    chords = np.asarray(chords, dtype=np.int64)
    horiz = chords < n * m
    # Horizontal edge (x, y)-(x+1, y) has the id of the face above it;
    # vertical edge (x, y)-(x, y+1) lies left of face (x, y).
    h = chords[horiz].astype(np.int32)
    y, x = np.divmod((chords[~horiz] - n * m).astype(np.int32), n)
    v = y * m + x
    fa = np.empty(len(chords), dtype=np.int32)
    fb = np.empty(len(chords), dtype=np.int32)
    fa[horiz] = np.where(h < outer, h, outer)
    fb[horiz] = np.where(h >= m, h - m, outer)
    fa[~horiz] = np.where(x < m, v, outer)
    fb[~horiz] = np.where(x > 0, v - 1, outer)
    return fa, fb


def _dual_fold(n: int, chords, make_rows):
    """Each chord's child face (int32) in the dual tree of a spanning tree
    of the n-grid, given all of its chord ids, and face rows folded over
    the subtrees.

    The faces are the (n-1)^2 unit squares, indexed like vertices of the
    (n-1)-grid by their lower-left corner, plus the outer face (n-1)^2.
    The chords, each joining the two faces it separates, form the dual
    spanning tree; rooted at the outer face, chord e's cycle C_e bounds the
    squares of the subtree of e's child face.  ``make_rows()``, called once
    that tree is rooted so that no row is alive beside the rooting's
    temporaries, gives (ufunc, int32 face row) pairs.  Each is folded into
    parents one level at a time, deepest first; then row[child] reduces it
    over the squares inside C_e, whose boxes give C_e's box.

    Lemma: with depths measured from a root on the outer face, the least
    depth among the corners of the squares inside C_e is the depth of the
    LCA w of e = {u, v}.  Proof: the vertices of the closed disk bounded by
    C_e are the corners of the enclosed squares.  w is the unique
    shallowest vertex of the tree path u..v.  The root path of a vertex
    strictly inside the disk leaves it through a vertex p of C_e, since
    tree edges do not cross C_e and a peripheral root is never strictly
    inside; so that vertex lies below p and is deeper than w.
    """
    outer = (n - 1) ** 2
    fa, fb = _chord_faces(n, chords)
    parent, depth, order, ends = _bfs(outer + 1, fa, fb, outer)
    child = np.where(depth[fa] > depth[fb], fa, fb)
    del fa, fb, depth
    # Fancy indexing and ufunc.at take intp indices as they are, but
    # convert int32 ones on every call of the per-level loop.
    parent, order = parent.astype(np.intp), order.astype(np.intp)
    rows = make_rows()
    for d in range(len(ends) - 1, 0, -1):
        kids = order[ends[d - 1]:ends[d]]
        up = parent[kids]
        for op, row in rows:
            op.at(row, up, row[kids])
    return child, [row for _, row in rows]


def _face_boxes(n: int) -> list:
    """The unit squares' xmin, xmax, ymin, ymax rows of :func:`_dual_fold`."""
    face = np.arange((n - 1) ** 2 + 1, dtype=np.int32)
    xmin, ymin = face % (n - 1) + 1, face // (n - 1) + 1
    return [(np.minimum, xmin), (np.maximum, xmin + 1),
            (np.minimum, ymin), (np.maximum, ymin + 1)]


def _corner_depths(n: int, depth):
    """Each unit square's least corner depth, a row of :func:`_dual_fold`."""
    d = depth.reshape(n, n)
    low = np.minimum(np.minimum(d[:-1, :-1], d[:-1, 1:]),
                     np.minimum(d[1:, :-1], d[1:, 1:]))
    return np.minimum, np.pad(low.ravel(), (0, 1))


def _box_perimeters(boxes, child) -> np.ndarray:
    """Perimeters (int64) of the folded box rows at the faces ``child``."""
    xmin, xmax, ymin, ymax = boxes
    return 2 * ((xmax - xmin) + (ymax - ymin))[child].astype(np.int64)


def tree_path(parent, depth, a: int, b: int) -> list[int]:
    """Nodes of the tree path a..b, both ends included, found by explicit
    parent walks from both ends up to their meeting point.

    Deliberately does not use the lifting tables, so it serves as an
    independent cross-check of the lifted queries.
    """
    up_a, up_b = [a], [b]
    while depth[a] > depth[b]:
        a = int(parent[a])
        up_a.append(a)
    while depth[b] > depth[a]:
        b = int(parent[b])
        up_b.append(b)
    while a != b:
        a = int(parent[a])
        b = int(parent[b])
        up_a.append(a)
        up_b.append(b)
    return up_a + up_b[-2::-1]


def missing_line(path, lineno: int, shape: str) -> MalformedFileError:
    """The error for a text file that ends before a line laid out as
    ``shape``; ``lineno`` is the 1-based number the line would have had."""
    return MalformedFileError(path, lineno, f"missing line '{shape}'")


def record_ints(path, lineno: int, line: str, shape: str) -> list[int]:
    """The integers of one line of a text file, laid out as ``shape``.

    ``shape`` lists the line's words: a literal keyword such as ``root``, or
    a ``<field>`` that must be an integer.  A line of another layout raises
    :class:`MalformedFileError` naming the file and the 1-based line number.
    """
    toks, words = line.split(), shape.split()
    if len(toks) == len(words) and all(
            w.startswith("<") or t == w for t, w in zip(toks, words)):
        try:
            return [int(t) for t, w in zip(toks, words) if w.startswith("<")]
        except ValueError:
            pass
    raise malformed_line(path, lineno, line, shape)


def malformed_line(path, lineno: int, line: str,
                   shape: str) -> MalformedFileError:
    """The error for line ``lineno`` (1-based) of a text file, which is not
    laid out as ``shape``."""
    return MalformedFileError(path, lineno, f"expected '{shape}', got "
                              f"{' '.join(line.split())!r}")


def tree_from_edges(g: GridGraph, edge_ids, root: Coord) -> SpanningTree:
    return SpanningTree.from_edges(g, edge_ids, root)


def fundamental_cycle(t: SpanningTree, e) -> list[Coord]:
    return t.fundamental_cycle(e)


def total_length(t: SpanningTree) -> CycleStats:
    return t.total_length()
