"""Command-line interface.

Subcommands: ``build`` (construct the recursive tree and report its totals),
``verify`` (bound sweep over a geometric schedule of sizes), ``lower``
(randomized lower-bound property suite), ``search`` (exhaustive or sampled
minimisation) and ``export`` (GF(2) matroid representation).

Exit codes: 0 all checks passed, 1 usage error, 2 I/O error, 3 a checked
mathematical claim failed on a concrete instance (never expected).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .construction import build_tree, log2_bound
from .errors import CounterexampleError, GridCycleError
from .expanded import (XSpanningTree, _log5_floor, _long_edges,
                       lemma_lower_check, plain)
from .grid import make_grid
from .matroid import echelon_representation
from .search import (ENUMERATION_LIMIT, SearchBudget, local_search,
                     min_total_length, random_spanning_tree)
from .tree import SpanningTree

SWEEP_SCHEDULE = (2, 3, 4, 5, 8, 16, 25, 32, 64, 125, 128, 256, 512, 1024)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_COUNTEREXAMPLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def cmd_build(args) -> int:
    n = args.n
    t = build_tree(n)
    stats = t.total_length() if n >= 2 else None
    L = stats.L_total if stats else 0
    avg = stats.average if stats else None
    depth_ok = t.max_depth() <= 2 * (n - 1)
    if args.out:
        t.to_file(args.out)
        print(f"tree written to {args.out}")
    print(f"n {n}")
    print(f"L {L}")
    print("average " + (f"{avg.numerator}/{avg.denominator}" if avg else "-"))
    print(f"max_depth {t.max_depth()} bound {2 * (n - 1)} "
          f"{'ok' if depth_ok else 'VIOLATED'}")
    if args.csv_out and stats:
        stats.to_csv(args.csv_out)
        print(f"per-chord statistics written to {args.csv_out}")
    if args.svg_out:
        from .construction import write_svg
        write_svg(t, args.svg_out)
        print(f"drawing written to {args.svg_out}")
    return EXIT_OK if depth_ok else EXIT_COUNTEREXAMPLE


def _verify_row(n: int):
    t = build_tree(n)
    stats = t.total_length()
    L = stats.L_total
    avg = stats.average
    L_bound = log2_bound(n, 10 * n * n)
    avg_bound = log2_bound(n, 40)
    lower = Fraction(2, 625) * _log5_floor(n)
    depth_bound = 2 * (n - 1)
    ok_L = Decimal(L) <= L_bound
    ok_avg = (Decimal(avg.numerator) <= avg_bound * avg.denominator)
    ok_lower = avg >= lower
    ok_depth = t.max_depth() <= depth_bound
    passed = ok_L and ok_avg and ok_lower and ok_depth
    return {
        "n": n, "L": L, "L_bound": int(L_bound),
        "avg_num": avg.numerator, "avg_den": avg.denominator,
        "avg_bound": f"{avg_bound:.6f}",
        "lower_num": lower.numerator, "lower_den": lower.denominator,
        "depth": t.max_depth(), "depth_bound": depth_bound,
        "pass": passed,
    }


def cmd_verify(args) -> int:
    rows = [_verify_row(n) for n in SWEEP_SCHEDULE if n <= args.n_max]
    fields = ["n", "L", "L_bound", "avg_num", "avg_den", "avg_bound",
              "lower_num", "lower_den", "depth", "depth_bound", "pass"]
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        out = csv.DictWriter(sink, fieldnames=fields)
        out.writeheader()
        for row in rows:
            out.writerow(row)
    finally:
        if args.out:
            sink.close()
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_COUNTEREXAMPLE


def _lower_one(args_n, seed):
    g = make_grid(args_n)
    h = plain(g)
    t = random_spanning_tree(g, seed)
    xt = XSpanningTree.from_host_tree(t, h)
    report = lemma_lower_check(h, xt)
    rec = report.to_json()
    rec["seed"] = seed
    if args_n % 5 == 0 and report.form != "sharp":
        layers = range(1, args_n // 5 + 1)
        rec["witnesses"] = [{"i": i, "edge_id": e} for i, e
                            in zip(layers, _long_edges(h, xt, layers))]
    return rec


def cmd_lower(args) -> int:
    n = args.n
    reports = [_lower_one(n, args.seed + k) for k in range(args.trees)]
    margins = [Fraction(r["lstar"]) - Fraction(r["bound_num"], r["bound_den"])
               for r in reports]
    summary = {
        "n": n,
        "trees": args.trees,
        "seed": args.seed,
        "min_margin": float(min(margins)),
        "witness_count": sum(len(r["witnesses"]) for r in reports),
        "reports": reports,
    }
    text = json.dumps(summary, indent=None if args.trees > 10 else 2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_search(args) -> int:
    n = args.n
    g = make_grid(n)
    if args.exhaustive:
        if n > ENUMERATION_LIMIT:
            sys.stderr.write(
                f"error: exhaustive search is limited to side "
                f"{ENUMERATION_LIMIT}; use sampling (omit --exhaustive)\n")
            return EXIT_USAGE
        rep = min_total_length(g)
        tree_file = args.out
        if tree_file:
            SpanningTree.from_edges(g, rep.witness_edge_ids,
                                    (1, 1) if n == 1 else (n, 1)).to_file(tree_file)
        print(f"{rep.trees_scanned} trees scanned")
        print(f"minimum L {rep.min_L}")
        print(f"minimum perimeter sum {rep.min_P}")
        record = {"n": n, "mode": "exhaustive", "value": rep.min_L,
                  "tree_file": tree_file}
        print(json.dumps(record))
        return EXIT_OK
    rows = []
    best = None
    for k in range(args.trees):
        seed = args.seed + k
        t = random_spanning_tree(g, seed)
        stats = t.total_length()
        rows.append((n, seed, stats.L_total, stats.average.numerator,
                     stats.average.denominator))
        if best is None or stats.L_total < best[1]:
            best = (t, stats.L_total)
    t, L = best
    if args.budget_seconds > 0:
        budget = SearchBudget(max_trees=10 ** 9,
                              max_seconds=args.budget_seconds, seed=args.seed)
        result = local_search(g, t, budget)
        t, L = result.tree, result.L
    tree_file = args.out
    if tree_file:
        t.to_file(tree_file)
    if args.format == "csv":
        out = csv.writer(sys.stdout)
        out.writerow(["n", "seed", "L", "avg_num", "avg_den"])
        for row in rows:
            out.writerow(row)
    record = {"n": n, "mode": "sample", "value": L, "tree_file": tree_file}
    print(json.dumps(record))
    return EXIT_OK


def cmd_export(args) -> int:
    n = args.n
    g = make_grid(n)
    if args.tree:
        t = SpanningTree.from_file(args.tree)
        if t.n != n:
            sys.stderr.write(f"error: tree file is for side {t.n}, not {n}\n")
            return EXIT_USAGE
    else:
        t = build_tree(n)
    mat = echelon_representation(g, t)
    print(f"{mat.n_rows} {mat.n_cols} {mat.nnz}")
    if args.out:
        mat.to_file(args.out)
    else:
        for r, c in mat.entries:
            print(f"{r} {c}")
    return EXIT_OK


def _positive(value):
    iv = int(value)
    if iv < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return iv


def build_parser() -> _Parser:
    p = _Parser(prog="gridcycle",
                description="Spanning-tree fundamental-cycle toolkit for "
                            "square grids")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct the recursive tree")
    b.add_argument("--n", type=_positive, required=True)
    b.add_argument("--out")
    b.add_argument("--csv-out")
    b.add_argument("--svg-out")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="bound sweep up to a maximal size")
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    lo = sub.add_parser("lower", help="randomized lower-bound suite")
    lo.add_argument("--n", type=_positive, required=True)
    lo.add_argument("--trees", type=_positive, default=10)
    lo.add_argument("--seed", type=int, default=0)
    lo.add_argument("--out")
    lo.set_defaults(func=cmd_lower)

    s = sub.add_parser("search", help="exhaustive or sampled minimisation")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--exhaustive", action="store_true")
    s.add_argument("--trees", type=_positive, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget-seconds", type=float, default=0.0)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out")
    s.set_defaults(func=cmd_search)

    e = sub.add_parser("export", help="emit the GF(2) matroid representation")
    e.add_argument("--n", type=_positive, required=True)
    e.add_argument("--tree")
    e.add_argument("--out")
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command == "verify" and args.n_max < 2:
        sys.stderr.write("error: --n-max must be at least 2\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except CounterexampleError as exc:
        sys.stderr.write(f"counterexample: {exc}\n")
        return EXIT_COUNTEREXAMPLE
    except GridCycleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
