import csv
import io
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import networkx as nx
import numpy as np

from gridcycle.errors import EmptyMatroidError, GridCycleError, OutOfRangeError
from gridcycle.expanded import (Duplicate, ExpandedGrid, XSpanningTree,
                                _is_dup_ref)
from gridcycle.grid import GridGraph, SubgridRef
from gridcycle.matroid import EchelonMatrix
from gridcycle.search import LocalSearchResult, SearchBudget
from gridcycle.tree import SpanningTree


def comb_tree(g: GridGraph) -> SpanningTree:
    """Bottom row plus every full column, rooted at the bottom-right corner."""
    n = g.n
    ids = [g.edge_id((x, 1), (x + 1, 1)) for x in range(1, n)]
    for x in range(1, n + 1):
        ids += [g.edge_id((x, y), (x, y + 1)) for y in range(1, n)]
    return SpanningTree.from_edges(g, ids, (n, 1))


def rows_plus_column_tree(g: GridGraph, column: int) -> SpanningTree:
    """Every full row plus one full column, rooted at the bottom-right corner."""
    n = g.n
    ids = []
    for y in range(1, n + 1):
        ids += [g.edge_id((x, y), (x + 1, y)) for x in range(1, n)]
    ids += [g.edge_id((column, y), (column, y + 1)) for y in range(1, n)]
    return SpanningTree.from_edges(g, ids, (n, 1))


def spiral_tree(g: GridGraph) -> SpanningTree:
    """The Hamiltonian path spiralling inward from (1, 1), rooted there:
    the deepest tree of the grid, depth n^2 - 1."""
    x0, y0, x1, y1 = 1, 1, g.n, g.n
    path = []
    while x0 <= x1 and y0 <= y1:
        path += [(x, y0) for x in range(x0, x1 + 1)]
        path += [(x1, y) for y in range(y0 + 1, y1 + 1)]
        if y0 < y1:
            path += [(x, y1) for x in range(x1 - 1, x0 - 1, -1)]
        if x0 < x1:
            path += [(x0, y) for y in range(y1 - 1, y0, -1)]
        x0, y0, x1, y1 = x0 + 1, y0 + 1, x1 - 1, y1 - 1
    ids = [g.edge_id(path[i], path[i + 1]) for i in range(len(path) - 1)]
    return SpanningTree.from_edges(g, ids, (1, 1))


def reference_tree_file(t: SpanningTree) -> bytes:
    """The tree file of ``t``, written line by line with ``str``."""
    ids = sorted(i for i, tree in enumerate(t.tree_edge_mask.tolist()) if tree)
    lines = [f"n {t.n}", f"root {t.root[0]} {t.root[1]}"] + list(map(str, ids))
    return "".join(line + "\n" for line in lines).encode()


def reference_stats_csv(stats) -> bytes:
    """The cycle-statistics CSV of ``stats``, written by the ``csv`` module."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(["edge_id", "length", "perimeter"])
    out.writerows(stats.records())
    return buf.getvalue().encode()


def explicit_cycle_length(t: SpanningTree, eid: int) -> int:
    """Fundamental-cycle length by stepwise parent walks over dictionaries,
    independent of both the ancestor tables and the library's path tracer."""
    g = t.host
    e = g.edge(eid)
    parent = {v: t.parent(v) for v in g.vertices()}
    anc = {e.a: 0}
    v, d = e.a, 0
    while parent[v] != v:
        v = parent[v]
        d += 1
        anc[v] = d
    v, d = e.b, 0
    while v not in anc:
        v = parent[v]
        d += 1
    return anc[v] + d + 1


def reference_emit(n: int) -> list[int]:
    """The edge ids of T_n from the per-edge recursion that
    ``construction.build_tree`` must match: every copy is emitted edge by
    edge, with its mirroring and offset applied to each edge on the way."""
    out: list[int] = []
    N = n
    nh = N * (N - 1)

    def emit(n, x0, y0, fh):
        """Append the edge ids of a T_n copy occupying the square block with
        bottom-left corner (x0, y0), mirrored horizontally when ``fh``."""

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
            emit(side, gx0, y0 + c - 1, fh ^ flip)

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

    emit(n, 1, 1, False)
    return out


def reference_enumerate(g: GridGraph, visit) -> int:
    """The class-based union-find enumerator that
    ``search.enumerate_spanning_trees`` must match tree for tree and in the
    same order: include/exclude branching over the canonical edge order, a
    cloned ``_DSU`` object per include branch and per feasibility probe."""

    class _DSU:
        __slots__ = ("p",)

        def __init__(self, n, p=None):
            self.p = list(range(n)) if p is None else p

        def find(self, x):
            p = self.p
            while p[x] != x:
                p[x] = p[p[x]]
                x = p[x]
            return x

        def union(self, a, b):
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                return False
            self.p[ra] = rb
            return True

        def clone(self):
            return _DSU(0, self.p[:])

    nv = g.num_vertices
    ne = g.num_edges
    endpoints = [(g.vertex_index(e.a), g.vertex_index(e.b)) for e in g.edges()]
    if nv == 1:
        visit(())
        return 1
    count = 0
    chosen: list[int] = []

    def feasible_without(i, dsu):
        probe = dsu.clone()
        comps = nv - (len(chosen))
        for j in range(i + 1, ne):
            u, v = endpoints[j]
            if probe.union(u, v):
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(i, dsu):
        nonlocal count
        if len(chosen) == nv - 1:
            count += 1
            visit(tuple(chosen))
            return
        if i == ne:
            return
        u, v = endpoints[i]
        if dsu.find(u) != dsu.find(v):
            inc = dsu.clone()
            inc.union(u, v)
            chosen.append(i)
            rec(i + 1, inc)
            chosen.pop()
        if feasible_without(i, dsu):
            rec(i + 1, dsu)

    rec(0, _DSU(nv))
    return count


def reference_local_search(g: GridGraph, t0: SpanningTree,
                           budget: SearchBudget) -> LocalSearchResult:
    """The rebuild-per-candidate hill climb that ``local_search`` must match:
    every swap on a tried chord's cycle is built as a new tree and scored by
    a full ``total_length``, and both budget limits are checked before each
    candidate."""
    rng = random.Random(budget.seed)
    t_start = time.monotonic()
    current = t0
    cur_L = current.total_length().L_total if g.n >= 2 else 0
    evals = 0
    exhausted = False
    optimum = False

    def out_of_budget():
        return (evals >= budget.max_trees
                or time.monotonic() - t_start >= budget.max_seconds)

    while True:
        improved = False
        chords = [int(c) for c in current.chord_ids()] if g.n >= 2 else []
        rng.shuffle(chords)
        for e in chords:
            if out_of_budget():
                exhausted = True
                break
            cycle = current.fundamental_cycle(e)
            tree_edges = [g.edge_id(cycle[i], cycle[i + 1])
                          for i in range(len(cycle) - 1)]
            base = set(int(i) for i in current.tree_edge_ids())
            for f in tree_edges:
                if out_of_budget():
                    exhausted = True
                    break
                cand_ids = (base - {f}) | {e}
                cand = SpanningTree.from_edges(g, cand_ids, current.root)
                cand_L = cand.total_length().L_total
                evals += 1
                if cand_L < cur_L:
                    current, cur_L = cand, cand_L
                    improved = True
                    break
            if improved or exhausted:
                break
        if exhausted:
            break
        if not improved:
            optimum = True
            break
    return LocalSearchResult(current, cur_L, evals, exhausted, optimum)


def reference_contract(h: ExpandedGrid, t: XSpanningTree, sub: SubgridRef
                       ) -> tuple[ExpandedGrid, XSpanningTree]:
    """The per-node Python contraction that ``expanded.contract`` must
    match: adjacency lists and a BFS from the subgrid's lower-left corner,
    subtree counts folded up the BFS order, then a walk along every chain of
    unkept Steiner vertices from its kept endpoint of lower node index."""
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

    nn = h.num_nodes
    nv = host.num_vertices
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(nn)]
    hids = np.nonzero(t.host_edge_mask)[0]
    ua, ub = host.edge_endpoint_indices(hids)
    for eid, a, b in zip(hids.tolist(), ua.tolist(), ub.tolist()):
        adj[a].append((b, 0, eid))
        adj[b].append((a, 0, eid))
    for i in t.xedge_indices:
        a, b = h.xedges[i]
        ia, ib = h.ref_index(a), h.ref_index(b)
        adj[ia].append((ib, 1, i))
        adj[ib].append((ia, 1, i))

    marked = np.zeros(nn, dtype=bool)
    for y in range(sub.y_lo, sub.y_hi + 1):
        base = (y - 1) * n
        marked[base + sub.x_lo - 1: base + sub.x_hi] = True
    total_marked = int(marked.sum())

    if side == 1:
        out_grid = ExpandedGrid(out_host, origin=(x_off, y_off))
        return out_grid, XSpanningTree(out_grid, [], [], (1, 1))

    # Steiner subtree: keep tree edges with marked vertices on both sides.
    root = (sub.y_lo - 1) * n + (sub.x_lo - 1)
    parent = [-1] * nn
    parent_edge = [None] * nn
    order = [root]
    parent[root] = root
    for u in order:
        for w, kind, key in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                parent_edge[w] = (kind, key)
                order.append(w)
    cnt = [1 if marked[v] else 0 for v in range(nn)]
    for u in reversed(order):
        p = parent[u]
        if p != u and p >= 0:
            cnt[p] += cnt[u]
    sadj: list[list[tuple[int, int, int]]] = [[] for _ in range(nn)]
    for u in order:
        p = parent[u]
        if p != u and cnt[u] >= 1 and total_marked - cnt[u] >= 1:
            kind, key = parent_edge[u]
            sadj[u].append((p, kind, key))
            sadj[p].append((u, kind, key))

    keep = [False] * nn
    for v in range(nn):
        if marked[v] or len(sadj[v]) >= 3:
            keep[v] = True

    # Suppress chains of unkept degree-2 vertices.
    out_host_edges: list[int] = []
    chains: list[tuple[int, int, int]] = []  # (kept_u, kept_v, H-length)
    seen = set()

    def edge_token(a, b, kind, key):
        return (min(a, b), max(a, b), kind, key)

    for u in range(nn):
        if not keep[u]:
            continue
        for w0, kind0, key0 in sadj[u]:
            tok = edge_token(u, w0, kind0, key0)
            if tok in seen:
                continue
            seen.add(tok)
            total_len = 1 if kind0 == 0 else h.xedge_lengths[key0]
            cur = w0
            nhops = 1
            arrival = tok
            while not keep[cur]:
                w, kind, key = next(
                    (e for e in sadj[cur]
                     if edge_token(cur, e[0], e[1], e[2]) != arrival))
                arrival = edge_token(cur, w, kind, key)
                seen.add(arrival)
                total_len += 1 if kind == 0 else h.xedge_lengths[key]
                cur = w
                nhops += 1
            if nhops == 1 and kind0 == 0 and marked[u] and marked[cur]:
                e = host.edge(key0)
                a = (e.a[0] - x_off, e.a[1] - y_off)
                b = (e.b[0] - x_off, e.b[1] - y_off)
                out_host_edges.append(out_host.edge_id(a, b))
            else:
                chains.append((u, cur, total_len))

    # Branch vertices outside the subgrid become duplicates.
    def position(v):
        if v < nv:
            return host.vertex_at(v)
        return h.duplicates[v - nv].base

    branch = sorted(v for v in range(nn) if keep[v] and not marked[v])
    sub_local = SubgridRef(1, side, 1, side)
    dup_info = []
    for v in branch:
        px, py = position(v)
        bx, by = sub_local.clamp((px - x_off, py - y_off))
        dup_info.append((v, (bx, by)))
    dup_info.sort(key=lambda it: (out_host.boundary_position(it[1]), it[0]))
    dup_of = {}
    duplicates = []
    slot_counter = {}
    for k, (v, base) in enumerate(dup_info):
        slot = slot_counter.get(base, 0)
        slot_counter[base] = slot + 1
        duplicates.append(Duplicate(k, base, slot))
        dup_of[v] = k

    def out_ref(v):
        if v in dup_of:
            return ("d", dup_of[v])
        x, y = host.vertex_at(v)
        return (x - x_off, y - y_off)

    out_xedges = [(out_ref(u), out_ref(v)) for u, v, _ in chains]
    out_grid = ExpandedGrid(out_host, duplicates, out_xedges,
                            origin=(x_off, y_off))
    out_tree = XSpanningTree(out_grid, out_host_edges,
                             range(len(out_xedges)), (1, 1))
    return out_grid, out_tree


def reference_edge_lengths(t: XSpanningTree) -> dict:
    """Map (min_idx, max_idx) -> smallest length of a tree edge there, built
    edge by edge from the host edge mask and the extra-edge list: the
    independent reference for the tree-edge lengths that ``walk_length``
    and ``wdepth`` read from the preorder layout."""
    grid = t.grid
    table = {}
    ua, ub = grid.host.edge_endpoint_indices(np.nonzero(t.host_edge_mask)[0])
    for a, b in zip(ua.tolist(), ub.tolist()):
        table[(min(a, b), max(a, b))] = 1
    for i in t.xedge_indices:
        a, b = grid.xedges[i]
        ia, ib = grid.ref_index(a), grid.ref_index(b)
        key = (min(ia, ib), max(ia, ib))
        lng = grid.xedge_lengths[i]
        if key not in table or lng < table[key]:
            table[key] = lng
    return table


def reference_long_edge(h: ExpandedGrid, t: XSpanningTree, i: int):
    """The witness that ``find_long_edge`` must return on C_i: the first
    chord in ring order, found by walking the ring with ``edge_id``, whose
    two ends lie in the outer rows (columns) on one side and whose explicit
    ``path_refs`` path has a position in the central band of rows
    (columns).  None when the ring has no such chord."""
    g = h.host
    n = g.n
    m = n // 5
    ring = g.concentric_cycle(i)
    for j, u in enumerate(ring):
        v = ring[(j + 1) % len(ring)]
        eid = g.edge_id(u, v)
        if t.contains_host_edge(eid):
            continue
        path = [h.ref_position(r) for r in t.path_refs(u, v)]
        for axis in (1, 0):
            ends = (u[axis], v[axis])
            outer = max(ends) <= m or min(ends) >= n - m + 1
            if outer and any(2 * m + 1 <= p[axis] <= 3 * m for p in path):
                return eid
    return None


def reference_is_drawable(h) -> bool:
    """Drawability by networkx's LR planarity test on the boundary cycle, an
    apex joined to all of it and the extra edges, duplicates taken as free
    outside vertices: the independent reference for
    ``ExpandedGrid.is_drawable``.  Reads only ``h.host`` and ``h.xedges``,
    so it also takes edge sets that ``ExpandedGrid`` would reject."""
    if h.host.n == 1:
        return True
    if not h.xedges:
        return True
    ring = h.host.boundary_cycle()
    pos = {v: i for i, v in enumerate(ring)}
    L = len(ring)
    g = nx.Graph()
    g.add_nodes_from(range(L))
    for i in range(L):
        g.add_edge(i, (i + 1) % L)
        g.add_edge("apex", i)
    for a, b in h.xedges:
        na = ("dup", a[1]) if _is_dup_ref(a) else pos[a]
        nb = ("dup", b[1]) if _is_dup_ref(b) else pos[b]
        if na != nb:
            g.add_edge(na, nb)
    ok, _ = nx.check_planarity(g)
    return ok


def reference_wilson_edges(g: GridGraph, seed: int) -> list[int]:
    """Edge ids of Wilson's uniform spanning tree drawn with
    ``random.Random.choice`` at every walk step, as ``random_spanning_tree``
    did before it inlined the draw: loop-erased walks from every vertex in
    index order into the tree grown from vertex 0."""
    rng = random.Random(seed)
    nv = g.num_vertices
    nbrs = [[g.vertex_index(w) for w in
             [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)] if g.contains(w)]
            for x, y in map(g.vertex_at, range(nv))]
    in_tree = [v == 0 for v in range(nv)]
    nxt = [-1] * nv
    for start in range(nv):
        u = start
        while not in_tree[u]:
            nxt[u] = rng.choice(nbrs[u])
            u = nxt[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = nxt[u]
    return sorted(g.edge_id(g.vertex_at(v), g.vertex_at(nxt[v]))
                  for v in range(1, nv))


def reference_echelon(g: GridGraph, t: SpanningTree) -> EchelonMatrix:
    """The per-step echelon representation that
    ``matroid.echelon_representation`` must match entry for entry: every
    chord's fundamental cycle traced by ``fundamental_cycle`` and each of
    its steps named by one ``edge_id`` call, then one sort of the (row,
    col) pairs."""
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


def reference_gf2_rank(m: EchelonMatrix) -> int:
    """GF(2) rank by row elimination over bit-packed integer rows: each
    nonzero row in turn takes its lowest set bit as pivot and clears that
    bit from every later row.  The independent reference for
    ``matroid.gf2_rank``."""
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
