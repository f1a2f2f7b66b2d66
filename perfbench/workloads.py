"""The benchmark's workloads: one operation each, its output checks, and the
traced replays that time the public calls an operation is built from.

Every workload calls gridcycle's public functions the way the CLI commands
do.  ``op`` is the timed operation; ``check`` verifies its output outside the
timing and raises :class:`CheckFailed`; ``replay`` runs only in traced
operations, after the operation, and makes again on the same inputs the
public calls that the operation's own calls make internally, so each gets a
span of its own.  ``replay`` returns the operation's work counts.

Span names are metric names without their ``_s`` suffix.  ``derive`` turns
the per-operation means of those metrics into the derived ones.
"""

from __future__ import annotations

import random
from decimal import Decimal
from pathlib import Path

import numpy as np

from gridcycle import (GridGraph, SearchBudget, SpanningTree, SubgridRef,
                       XSpanningTree, build_tree, contract,
                       count_spanning_trees, cycle_box, echelon_representation,
                       enumerate_spanning_trees, find_long_edge, gf2_rank,
                       lemma_lower_check, local_search, lstar,
                       min_total_length, plain, random_spanning_tree, sparsity)
from gridcycle.construction import log2_bound


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(*parts) -> int:
    """The seed of one generated input, from the run seed and the input's
    place in the run.  Different run seeds give unrelated inputs."""
    return random.Random(":".join(map(str, parts))).getrandbits(32)


class Workload:
    name = ""
    # Operations come in groups of ``period``; a run ends on a group boundary.
    period = 1

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = seed
        self.workdir = workdir  # where an operation may write files

    def setup(self) -> None:
        """Build the inputs that every operation shares."""

    def op(self, k: int, tr):
        raise NotImplementedError

    def check(self, k: int, out) -> None:
        raise NotImplementedError

    def replay(self, k: int, out, tr) -> dict:
        return {}

    def derive(self, mean: dict) -> dict:
        return {}


class Build(Workload):
    """``build_tree(n)``, ``total_length``, ``to_file`` and ``to_csv``."""

    name = "build"
    PINS = {16: (1974, 1970), 1024: (31299222, 30886322)}  # n -> (L, P)
    ORACLE_CHORDS = 1000

    def __init__(self, seed, workdir=None, n: int = 1024):
        super().__init__(seed, workdir)
        self.n = n

    def files(self):
        return self.workdir / "tree.txt", self.workdir / "stats.csv"

    def op(self, k, tr):
        t = tr.call("construction.build_tree", build_tree, self.n)
        stats = tr.call("tree.total_length", t.total_length)
        tree_file, csv_file = self.files()
        tr.call("tree.to_file", t.to_file, tree_file)
        tr.call("tree.to_csv", stats.to_csv, csv_file)
        return t, stats

    def check(self, k, out):
        t, stats = out
        n = self.n
        expect((stats.L_total, stats.P_total) == self.PINS[n],
               f"L, P = {stats.L_total}, {stats.P_total}; "
               f"expected {self.PINS[n]}")
        expect(t.max_depth() <= 2 * (n - 1), f"max depth {t.max_depth()}")
        expect(Decimal(stats.L_total) <= log2_bound(n, 10 * n * n),
               f"L = {stats.L_total} exceeds 10 n^2 log2 n")
        # The seed only picks which chords the explicit-walk oracle checks.
        rng = random.Random(f"{self.seed}:{k}")
        picks = rng.sample(range(stats.count),
                           min(self.ORACLE_CHORDS, stats.count))
        for i in picks:
            cycle = t.fundamental_cycle(int(stats.edge_ids[i]))
            expect(len(cycle) == stats.lengths[i]
                   and cycle_box(cycle).perimeter == stats.perimeters[i],
                   f"chord {stats.edge_ids[i]}: fast length/perimeter "
                   "differ from the explicit walk")

    def replay(self, k, out, tr):
        t, stats = out
        ids = t.tree_edge_ids().tolist()
        tr.call("tree.from_edges", SpanningTree.from_edges, t.host, ids, t.root)
        lengths = tr.call("tree.cycle_lengths", t.cycle_lengths, stats.edge_ids)
        expect(np.array_equal(lengths, stats.lengths),
               "cycle_lengths differs from total_length")
        tree_file, csv_file = self.files()
        back = tr.call("tree.from_file", SpanningTree.from_file, tree_file)
        expect(np.array_equal(back.tree_edge_mask, t.tree_edge_mask),
               "tree file does not read back to the same tree")
        return {"tree.bytes_written": (tree_file.stat().st_size
                                       + csv_file.stat().st_size),
                "tree.chords": stats.count,
                "tree.max_depth": t.max_depth()}

    def derive(self, mean):
        return {
            "construction.emit_s": (mean["construction.build_tree_s"]
                                    - mean["tree.from_edges_s"]),
            "tree.path_boxes_s": (mean["tree.total_length_s"]
                                  - mean["tree.cycle_lengths_s"]),
            "tree.io_share": ((mean["tree.to_file_s"] + mean["tree.to_csv_s"])
                              / mean["trace.op_s.mean"]),
        }


class Lower(Workload):
    """A uniform tree, then ``lemma_lower_check`` as ``cmd_lower`` runs it.

    Even operations use the first size (sharp form on a plain grid), odd
    ones the second (general form through a grid with duplicates).
    """

    name = "lower"
    period = 2

    def __init__(self, seed, workdir=None, sizes: tuple = (125, 130)):
        super().__init__(seed, workdir)
        self.sizes = sizes

    def setup(self):
        self.grids = {}
        for n in self.sizes:
            g = GridGraph(n)
            self.grids[n] = (g, plain(g))

    def op(self, k, tr):
        g, h = self.grids[self.sizes[k % 2]]
        n = g.n
        t = tr.call("search.random_spanning_tree", random_spanning_tree, g,
                    self.seed + k)
        xt = tr.call("expanded.from_host_tree", XSpanningTree.from_host_tree,
                     t, h)
        report = tr.call("expanded.lemma_lower_check", lemma_lower_check, h, xt)
        long_edges = []
        if n % 5 == 0 and report.form != "sharp":
            long_edges = [tr.call("expanded.find_long_edge", find_long_edge,
                                  h, xt, i) for i in range(1, n // 5 + 1)]
        return t, report, long_edges

    def check(self, k, out):
        t, rep, long_edges = out
        expect(rep.lstar >= rep.bound, f"lstar {rep.lstar} < {rep.bound}")
        expect(rep.lstar == t.total_length().P_total,
               "lstar differs from the host tree's perimeter sum")
        sharp = rep
        if rep.form == "general":
            sharp = rep.sub_report
            expect(rep.lstar >= sharp.lstar,
                   f"lstar {rep.lstar} < sub lstar {sharp.lstar}")
            expect(len(long_edges) == rep.n // 5
                   and not any(t.contains_edge(e) for e in long_edges),
                   "find_long_edge did not give one chord per layer")
        expect(len(sharp.tiles) == 25
               and all(tile.sub_lstar >= tile.sub_bound for tile in sharp.tiles),
               "a tile is missing or below its sub-bound")
        expect([i for i, _ in sharp.witnesses]
               == list(range(1, sharp.n // 5 + 1)),
               "not one witness per layer")

    def replay(self, k, out, tr):
        t, rep, long_edges = out
        _, h = self.grids[t.n]
        counts = {"expanded.contracts": 0, "expanded.duplicates_out": 0,
                  "expanded.xedges_out": 0}
        # A fresh expanded tree, so lstar builds its box tables again, as it
        # does inside lemma_lower_check.
        sharp = self._replay(h, XSpanningTree.from_host_tree(t, h), rep, tr,
                             counts)
        counts["expanded.witnesses"] = len(sharp.witnesses) + len(long_edges)
        return counts

    def _replay(self, h, xt, rep, tr, counts):
        """The contract and lstar calls that ``lemma_lower_check`` makes.

        Returns the report that carries the tiles and witnesses.
        """
        expect(tr.call("expanded.lstar", lstar, xt) == rep.lstar,
               "replayed lstar differs")
        if rep.form == "general":
            side = rep.sub_report.n
            sg, st = self._contract(h, xt, SubgridRef(1, side, 1, side), tr,
                                    counts)
            return self._replay(sg, st, rep.sub_report, tr, counts)
        for tile, tile_rep in zip(h.host.tile_5x5(), rep.tiles):
            _, st = self._contract(h, xt, tile, tr, counts)
            expect(tr.call("expanded.lstar", lstar, st) == tile_rep.sub_lstar,
                   f"replayed lstar of tile {tile_rep.tile} differs")
        return rep

    @staticmethod
    def _contract(h, xt, sub, tr, counts):
        sg, st = tr.call("expanded.contract", contract, h, xt, sub)
        counts["expanded.contracts"] += 1
        counts["expanded.duplicates_out"] += len(sg.duplicates)
        counts["expanded.xedges_out"] += len(sg.xedges)
        return sg, st

    def derive(self, mean):
        return {"expanded.contract_share":
                mean["expanded.contract_s"] / mean["expanded.lemma_lower_check_s"]}


def _visit_nothing(ids) -> None:
    pass


class Exhaustive(Workload):
    """``CALLS`` exhaustive minimisations over every spanning tree of the
    3-grid, as ``search --exhaustive`` runs one."""

    name = "exhaustive"
    N = 3
    CALLS = 128
    PIN = (192, 16, 16)  # trees, min L, min P

    def setup(self):
        self.g = GridGraph(self.N)

    def op(self, k, tr):
        return [tr.call("search.min_total_length", min_total_length, self.g)
                for _ in range(self.CALLS)]

    def check(self, k, reports):
        g, n = self.g, self.N
        count = count_spanning_trees(g)
        for rep in reports:
            expect(rep.trees_scanned == count,
                   f"{rep.trees_scanned} trees scanned; Bareiss count is {count}")
            expect((rep.trees_scanned, rep.min_L, rep.min_P) == self.PIN,
                   f"trees, min L, min P = {rep.trees_scanned}, {rep.min_L}, "
                   f"{rep.min_P}; expected {self.PIN}")
            witness = SpanningTree.from_edges(g, rep.witness_edge_ids, (n, 1))
            expect(witness.total_length().L_total == rep.min_L,
                   "witness tree's fast total differs from min L")

    def replay(self, k, reports, tr):
        for rep in reports:
            visited = tr.call("search.enumerate", enumerate_spanning_trees,
                              self.g, _visit_nothing)
            expect(visited == rep.trees_scanned, "enumeration count differs")
        tr.call("search.count_spanning_trees", count_spanning_trees, self.g)
        return {"search.trees_scanned": sum(r.trees_scanned for r in reports)}

    def derive(self, mean):
        return {"search.oracle_s": (mean["search.min_total_length_s"]
                                    - mean["search.enumerate_s"])}


class Sample(Workload):
    """Uniform draws scored by ``total_length``, ``local_search`` from the
    best one with a fixed evaluation budget, then the GF(2) representation
    of the result."""

    name = "sample"
    DRAWS = 20
    EVALUATIONS = 400

    def __init__(self, seed, workdir=None, n: int = 32):
        super().__init__(seed, workdir)
        self.n = n

    def setup(self):
        self.g = GridGraph(self.n)

    def op(self, k, tr):
        g = self.g
        trees = []
        best = None
        for j in range(self.DRAWS):
            t = tr.call("search.random_spanning_tree", random_spanning_tree, g,
                        derive_seed(self.seed, k, j))
            L = tr.call("tree.total_length", t.total_length).L_total
            trees.append(t)
            if best is None or L < best[1]:
                best = (t, L)
        budget = SearchBudget(max_trees=self.EVALUATIONS, max_seconds=1e9,
                              seed=derive_seed(self.seed, k, "search"))
        res = tr.call("search.local_search", local_search, g, best[0], budget)
        mat = tr.call("matroid.echelon_representation", echelon_representation,
                      g, res.tree)
        rank = tr.call("matroid.gf2_rank", gf2_rank, mat)
        return trees, best[1], res, mat, rank

    def check(self, k, out):
        _, start_L, res, mat, rank = out
        g, n = self.g, self.n
        t = SpanningTree.from_edges(g, res.tree.tree_edge_ids().tolist(),
                                    res.tree.root)
        expect(t.total_length().L_total == res.L,
               "result's L differs from its recomputed total")
        expect(res.L <= start_L, f"L rose from {start_L} to {res.L}")
        expect(mat.nnz == sparsity(g, res.tree),
               f"echelon nnz {mat.nnz} differs from sparsity")
        expect(rank == n * n - 1, f"GF(2) rank {rank}, expected {n * n - 1}")

    def replay(self, k, out, tr):
        trees, start_L, res, mat, _ = out
        for t in trees:
            ids, chords = t.tree_edge_ids().tolist(), t.chord_ids()
            tr.call("tree.from_edges", SpanningTree.from_edges, self.g, ids,
                    t.root)
            tr.call("tree.cycle_lengths", t.cycle_lengths, chords)
        return {"search.evaluations": res.evaluations,
                "search.L_drop": start_L - res.L,
                "matroid.nnz": mat.nnz}

    def derive(self, mean):
        return {
            "tree.path_boxes_s": (mean["tree.total_length_s"]
                                  - mean["tree.cycle_lengths_s"]),
            "search.evals_per_s": (mean["search.evaluations"]
                                   / mean["search.local_search_s"]),
        }


WORKLOADS = {w.name: w for w in (Build, Lower, Exhaustive, Sample)}
