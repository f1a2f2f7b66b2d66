import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridcycle.grid import GridGraph
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
