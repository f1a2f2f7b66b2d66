"""Oracles and optimizers over the spanning trees of a grid.

Exhaustive enumeration is an independent ground truth for small grids: the
enumerated tree count is cross-checked against the matrix-tree determinant,
and per-tree totals are recomputed here by explicit breadth-first walks
rather than through the dual-tree fold that host trees take their cycle
lengths and boxes from.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import CounterexampleError, NotAChordError, TooLargeError
from .grid import GridGraph
from .tree import SpanningTree, _adjacency

ENUMERATION_LIMIT = 4


def count_spanning_trees(g: GridGraph) -> int:
    """Exact spanning-tree count via a fraction-free integer determinant of
    the reduced Laplacian."""
    nv = g.num_vertices
    if nv == 1:
        return 1
    lap = [[0] * nv for _ in range(nv)]
    for e in g.edges():
        i, j = g.vertex_index(e.a), g.vertex_index(e.b)
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    reduced = [row[:-1] for row in lap[:-1]]
    return _bareiss_determinant(reduced)


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; exact over Python integers."""
    k = len(m)
    if k == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for r in range(i + 1, k):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[i][i]
        for r in range(i + 1, k):
            row_r, row_i = m[r], m[i]
            factor = row_r[i]
            for c in range(i + 1, k):
                row_r[c] = (row_r[c] * pivot - factor * row_i[c]) // prev
            row_r[i] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


def _endpoint_table(g: GridGraph):
    """Plain-list lookups for the explicit walks, built once per call: each
    edge's two vertex indices in canonical id order, and each vertex's
    1-based x and y."""
    n = g.n
    ends = [(g.vertex_index(e.a), g.vertex_index(e.b)) for e in g.edges()]
    xs = [i % n + 1 for i in range(g.num_vertices)]
    ys = [i // n + 1 for i in range(g.num_vertices)]
    return ends, xs, ys


def enumerate_spanning_trees(g: GridGraph, visit) -> int:
    """Visit every spanning tree of g exactly once as a sorted edge-id tuple.

    Binary include/exclude branching over the canonical edge order, pruned by
    a cycle test on the include branch and a connectivity-feasibility test on
    the exclude branch, so the recursion tree has one leaf per spanning tree.
    The union-find is a parent list, copied with ``p[:]`` where a branch
    needs its own.  Declined above side 4; use :func:`random_spanning_tree`
    there instead.
    """
    n = g.n
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"exhaustive enumeration is limited to side {ENUMERATION_LIMIT}; "
            f"side {n} has too many trees - sample with random_spanning_tree")
    nv = g.num_vertices
    ne = g.num_edges
    ends = _endpoint_table(g)[0]
    if nv == 1:
        visit(())
        return 1
    count = 0
    chosen: list[int] = []

    def find(p, x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def feasible_without(i, p):
        p = p[:]
        comps = nv - len(chosen)
        for j in range(i + 1, ne):
            u, v = ends[j]
            ru, rv = find(p, u), find(p, v)
            if ru != rv:
                p[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(i, p):
        nonlocal count
        if len(chosen) == nv - 1:
            count += 1
            visit(tuple(chosen))
            return
        if i == ne:
            return
        u, v = ends[i]
        ru, rv = find(p, u), find(p, v)
        if ru != rv:
            inc = p[:]
            inc[ru] = rv
            chosen.append(i)
            rec(i + 1, inc)
            chosen.pop()
        if feasible_without(i, p):
            rec(i + 1, p)

    rec(0, list(range(nv)))
    return count


def _explicit_totals(g: GridGraph, edge_ids, table=None):
    """(L_total, P_total) of a tree, by plain BFS and stepwise path walks.

    Independent of the dual-tree fold (``tree._dual_fold``) that host trees
    take their lengths and boxes from; used as the oracle side of
    dual-route checks.  Each step moves the deeper end of a chord (its first
    end on a tie) to its parent until the ends meet at their LCA; the cycle
    box is a running min/max over every vertex reached.
    ``table`` is :func:`_endpoint_table` of g, built here when not given.
    """
    ends, xs, ys = table or _endpoint_table(g)
    nv = len(xs)
    adj = [[] for _ in range(nv)]
    in_tree = bytearray(len(ends))
    for eid in edge_ids:
        in_tree[eid] = 1
        u, v = ends[eid]
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * nv
    depth = [-1] * nv
    order = [0]
    depth[0] = 0
    parent[0] = 0
    for u in order:
        d = depth[u] + 1
        for w in adj[u]:
            if depth[w] < 0:
                depth[w] = d
                parent[w] = u
                order.append(w)
    L = 0
    P = 0
    for (a, b), tree_edge in zip(ends, in_tree):
        if tree_edge:
            continue
        x_lo, x_hi = (xs[a], xs[b]) if xs[a] <= xs[b] else (xs[b], xs[a])
        y_lo, y_hi = (ys[a], ys[b]) if ys[a] <= ys[b] else (ys[b], ys[a])
        da, db = depth[a], depth[b]
        steps = 1
        while a != b:
            if da >= db:
                a = v = parent[a]
                da -= 1
            else:
                b = v = parent[b]
                db -= 1
            steps += 1
            x = xs[v]
            if x < x_lo:
                x_lo = x
            elif x > x_hi:
                x_hi = x
            y = ys[v]
            if y < y_lo:
                y_lo = y
            elif y > y_hi:
                y_hi = y
        L += steps
        P += 2 * (x_hi - x_lo) + 2 * (y_hi - y_lo)
    return L, P


@dataclass(frozen=True)
class MinimumReport:
    """Exhaustive minimum of the total cycle length over all spanning trees."""

    n: int
    trees_scanned: int
    min_L: int
    min_P: int
    witness_edge_ids: tuple


def min_total_length(g: GridGraph) -> MinimumReport:
    """Exact minimum of the total fundamental-cycle length, with a witness
    tree, plus the minimum perimeter sum for comparison.  Side <= 4 only."""
    n = g.n
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"exact minimisation is limited to side {ENUMERATION_LIMIT}")
    best = [None, None, None]
    scanned = [0]
    table = _endpoint_table(g)

    def visit(ids):
        scanned[0] += 1
        L, P = _explicit_totals(g, ids, table)
        if best[0] is None or L < best[0]:
            best[0] = L
            best[2] = ids
        if best[1] is None or P < best[1]:
            best[1] = P

    enumerate_spanning_trees(g, visit)
    return MinimumReport(n, scanned[0], best[0] or 0, best[1] or 0,
                         best[2] or ())


def random_spanning_tree(g: GridGraph, seed: int) -> SpanningTree:
    """Exactly uniform spanning tree via loop-erased random walks.

    Deterministic for a fixed seed.  A vertex's neighbours are offsets from
    it, (-1, +1, -n, +n) less the sides that do not exist, so every vertex
    shares one of nine offset tuples.  The walk keeps only the index it
    last drew at each vertex, which performs the loop erasure implicitly:
    re-visiting a vertex overwrites its choice.
    """
    rng = random.Random(seed)
    n = g.n
    nv = g.num_vertices
    if nv == 1:
        return SpanningTree.from_edges(g, [], (1, 1))

    def row(vert):  # one row's offset tuples, left to right
        return [(1,) + vert] + [(-1, 1) + vert] * (n - 2) + [(-1,) + vert]

    nbrs = row((n,)) + row((-n, n)) * (n - 2) + row((-n,))
    in_tree = bytearray(nv)
    in_tree[0] = 1
    pick = bytearray(nv)
    nxt = array("i", [0]) * nv
    # rng.choice(nb), inlined: CPython's _randbelow_with_getrandbits draws
    # len(nb).bit_length() bits until they fall below len(nb).
    getrandbits = rng.getrandbits
    for start in range(nv):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            nb = nbrs[u]
            k = len(nb)
            r = getrandbits(k.bit_length())
            while r >= k:
                r = getrandbits(k.bit_length())
            pick[u] = r
            u += nb[r]
        u = start
        while not in_tree[u]:
            in_tree[u] = 1
            v = u + nbrs[u][pick[u]]
            nxt[u] = v
            u = v
    # The tree edges: every vertex but the root 0 to its next vertex.
    ids = g.edge_ids(np.arange(1, nv, dtype=np.int32),
                     np.frombuffer(nxt, dtype=np.int32)[1:])
    return SpanningTree.from_edges(g, ids, (1, 1))


@dataclass(frozen=True)
class SearchBudget:
    max_trees: int = 100_000
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_trees <= 0 or self.max_seconds <= 0:
            raise ValueError("budget limits must be positive")


@dataclass
class LocalSearchResult:
    tree: SpanningTree
    L: int
    evaluations: int
    budget_exhausted: bool
    local_optimum: bool


def swap_deltas(t: SpanningTree, e: int) -> np.ndarray:
    """Change of the total cycle length for every swap "chord e in, tree edge
    f out", f running over e's tree path in the order that
    ``t.fundamental_cycle(e)`` walks it.

    With P_e the tree path from e's end a to its end b, of m edges, a vertex
    u projects onto position (d(a,u) + m - d(b,u)) / 2 of P_e, so another
    chord c = {x, y} shares the edges [lo_c, hi_c) of P_e between the
    projections of x and y; let k_c = hi_c - lo_c.  Removing the edge at
    position j turns the cycle of every chord c with lo_c <= j < hi_c into
    C_c xor C_e, of length |C_c| + |C_e| - 2 k_c, and leaves the others
    alone; the removed edge's own cycle is C_e, which cancels e's.  The sums
    over j come from one difference array.  The tree distances d(a, .) and
    d(b, .) to every vertex come from one unweighted two-source
    ``dijkstra`` over the tree's edges, whose cost does not depend on the
    tree's depth.
    """
    return _swap_deltas(_swap_layout(t), e)


def _swap_layout(t: SpanningTree):
    """What :func:`_swap_deltas` reads of a tree: its sorted chord ids,
    their end vertices (all first ends, then all second ends), and the
    tree's adjacency with each edge in both directions (the root's
    self-loop never shortens a path)."""
    chords = t.chord_ids()
    ends = np.concatenate(t.host.edge_endpoint_indices(chords))
    parent = t.parent_idx
    v = np.arange(len(parent), dtype=np.int32)
    adj = _adjacency(np.concatenate([v, parent]),
                     np.concatenate([parent, v]), len(parent))
    return chords, ends, adj


def _swap_deltas(layout, e: int) -> np.ndarray:
    """:func:`swap_deltas` of chord e, given the tree's :func:`_swap_layout`."""
    chords, ends, adj = layout
    i = int(np.searchsorted(chords, e))
    if i == len(chords) or chords[i] != e:
        raise NotAChordError(f"edge {e} is not a chord of the tree")
    k = len(chords)
    d = dijkstra(adj, directed=True, unweighted=True,
                 indices=ends[[i, k + i]])[:, ends].astype(np.int64)
    d_a, d_b = d
    m = int(d_a[k + i])
    pos = (d_a + m - d_b) // 2
    lo = np.minimum(pos[:k], pos[k:])
    hi = np.maximum(pos[:k], pos[k:])
    w = m + 1 - 2 * (hi - lo)
    w[i] = 0
    diff = np.zeros(m + 1, dtype=np.int64)
    np.add.at(diff, lo, w)
    np.add.at(diff, hi, -w)
    return np.cumsum(diff[:m])


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle x in place exactly as CPython 3.11's ``Random.shuffle`` does,
    given that generator's ``getrandbits``: Fisher-Yates from the end, each
    swap partner drawn as ``_randbelow_with_getrandbits(i + 1)`` does, by
    (i + 1).bit_length() bits drawn again until they fall below i + 1."""
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _chord_length_sum(t: SpanningTree) -> int:
    return int(t.cycle_lengths(t.chord_ids()).sum())


def local_search(g: GridGraph, t0: SpanningTree,
                 budget: SearchBudget) -> LocalSearchResult:
    """Hill-climb on the total cycle length by chord/tree-edge swaps.

    Each move inserts a chord e and deletes one tree edge f on its
    fundamental cycle, so the result is always a spanning tree; a move is
    accepted only if the total strictly decreases (first improvement: chord
    order shuffled per seed, f in cycle order).  One :func:`swap_deltas`
    pass scores every f on a tried chord's cycle, from per-tree data built
    once per tree; each scored f counts as one evaluation.  An accepted
    move is rebuilt through :meth:`SpanningTree.from_edges` and its total
    recomputed over all chords; a total other than the predicted one raises
    :class:`CounterexampleError`.  Stops at a local optimum or when the
    budget runs out: the evaluation limit is exact, the time limit is
    checked once per tried chord.
    """
    rng = random.Random(budget.seed)
    t_start = time.monotonic()
    current = t0
    cur_L = _chord_length_sum(current)
    evals = 0

    def result(exhausted):
        return LocalSearchResult(current, cur_L, evals, exhausted,
                                 not exhausted)

    while True:
        layout = _swap_layout(current)
        chords = layout[0].tolist()
        _shuffle(chords, rng.getrandbits)
        for e in chords:
            room = budget.max_trees - evals
            if room <= 0 or time.monotonic() - t_start >= budget.max_seconds:
                return result(True)
            deltas = _swap_deltas(layout, e)
            better = np.flatnonzero(deltas[:room] < 0)
            if len(better):
                break
            if len(deltas) > room:
                evals += room
                return result(True)
            evals += len(deltas)
        else:
            return result(False)
        j = int(better[0])
        evals += j + 1
        cycle = current.fundamental_cycle(e)
        f = g.edge_id(cycle[j], cycle[j + 1])
        mask = current.tree_edge_mask.copy()
        mask[[e, f]] = True, False
        cand = SpanningTree.from_edges(g, np.flatnonzero(mask), current.root)
        cand_L = _chord_length_sum(cand)
        if cand_L != cur_L + int(deltas[j]):
            raise CounterexampleError(
                f"local search on the {g.n}-grid (seed {budget.seed}): "
                f"swapping chord {e} in and tree edge {f} out gives L = "
                f"{cand_L}, not the predicted {cur_L + int(deltas[j])}")
        current, cur_L = cand, cand_L
