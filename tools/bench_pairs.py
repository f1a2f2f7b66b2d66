"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --batch build:1101-1110 --batch build:1201-1210 \\
        --batch lower:1301-1305 --traced build:1901 \\
        --claim build:op_s.p50:20 --what "..." --out BENCH_label.json

Each side runs from its own copy of the repository, made with ``git
archive`` of its revision (``--change .`` copies the working tree's tracked
and untracked, not ignored, files instead), so neither run sees the other's
files or build products.  A batch is one pair of untraced runs of
``perfbench/run.py`` per seed, one run per side with the same seed; even
pairs run the parent first and odd pairs the change first.  A traced run
(``--trace 1``) runs once per side, parent first.  Runs go one at a time.

The output keeps every run's JSON result, and per workload and end-to-end
metric the median and quartiles of each side (``numpy.percentile``, linear
interpolation), the change's difference from the parent in percent, and the
number of pairs in which both runs finished and the change was better.  A
claim ``workload:metric:percent`` is met when, in every batch of that
workload, the change is better in at least nine of every ten pairs run (a
pair in which a run did not finish counts against it), its median is better
than the parent's by ``percent`` or more, the medians differ by more than
the parent's quartile distance, and the change's runs failed no more
operations than the parent's.  Every run lasts BENCHMARK.json's
``run_seconds``.  The file is rewritten after every run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> None:
    """The files of ``rev``, or of the working tree for ``.``, in ``dest``."""
    dest.mkdir(parents=True)
    if rev != ".":
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
        return
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(copy: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        sys.stderr.write(proc.stderr[-2000:])
    return {"returncode": proc.returncode, "wall_s": round(wall, 1),
            "result": result}


def parse_seeds(text: str) -> tuple[str, list[int]]:
    """``workload:first-last`` or ``workload:seed``."""
    workload, _, span = text.partition(":")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def metric_value(run, name):
    return run["result"]["metrics"][name]["value"]


def compare(pairs, name: str, better: str) -> dict:
    """Each side's quartiles of one metric over the (parent, change) run
    pairs in which both runs finished, and the number of those pairs in
    which the change was better."""
    finished = [(p, c) for p, c in pairs if p["result"] and c["result"]]
    parent = [metric_value(p, name) for p, _ in finished]
    change = [metric_value(c, name) for _, c in finished]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    row = {"better": better, "parent": None, "change": None,
           "change_minus_parent_pct": None, "change_better_pairs": int(wins),
           "pairs": len(pairs), "finished_pairs": len(finished)}
    if finished:
        pm, cm = np.median(parent), np.median(change)
        row.update(parent=quartiles(parent), change=quartiles(change),
                   change_minus_parent_pct=round(float(100 * (cm - pm) / pm),
                                                 1))
    return row


def paired(runs, workload: str, batch=None):
    """(parent, change) runs of each pair of a workload that ran both
    sides, finished or not."""
    by_pair = {}
    for r in runs:
        if r["workload"] == workload and batch in (None, r["batch"]):
            by_pair.setdefault((r["batch"], r["pair"]), {})[r["side"]] = r
    return [(s["parent"], s["change"]) for _, s in sorted(by_pair.items())
            if len(s) == 2]


def failed_ops(pairs) -> dict:
    """Operations that failed, summed over each side's finished runs."""
    return {side: sum(pair[k]["result"]["failed"] for pair in pairs
                      if pair[k]["result"])
            for k, side in enumerate(("parent", "change"))}


def summarize(runs, spec) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = paired(runs, workload)
        if not pairs:
            continue
        out[workload] = {m["name"]: compare(pairs, m["name"], m["better"])
                         for m in spec["end_to_end"]}
        out[workload]["failed_over_attempted"] = {
            side: [sum(r["result"]["failed"] for r in runs
                       if r["workload"] == workload and r["side"] == side
                       and r["result"]),
                   sum(r["result"]["attempted"] for r in runs
                       if r["workload"] == workload and r["side"] == side
                       and r["result"])]
            for side in ("parent", "change")}
    return out


def judge(claim: str, runs, traced_runs, spec) -> dict:
    workload, name, pct = claim.split(":")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}[name]
    sign = 1 if better == "higher" else -1
    batches = []
    for batch in sorted({r["batch"] for r in runs
                         if r["workload"] == workload}):
        pairs = paired(runs, workload, batch)
        if not pairs:
            continue
        row = compare(pairs, name, better)
        row.update(batch=batch, failed_ops=failed_ops(pairs), met=False)
        parent = row["parent"]
        if parent:
            gap = sign * (row["change"]["median"] - parent["median"])
            row.update(median_difference=round(gap, 4),
                       parent_quartile_distance=round(
                           parent["q3"] - parent["q1"], 4))
            row["met"] = bool(
                10 * row["change_better_pairs"] >= 9 * row["pairs"]
                and sign * row["change_minus_parent_pct"] >= float(pct)
                and gap > row["parent_quartile_distance"]
                and row["failed_ops"]["change"] <= row["failed_ops"]["parent"])
        batches.append(row)
    traced = {}
    for r in traced_runs:
        if r["workload"] == workload and r["result"]:
            for key, m in r["result"]["metrics"].items():
                traced.setdefault(key, {})[r["side"]] = round(m["value"], 4)
    traced = {k: v for k, v in traced.items() if any(v.values())}
    return {"workload": workload, "metric": name, "better": better,
            "target_pct": float(pct), "batches": batches,
            "met": bool(batches) and all(b["met"] for b in batches),
            "traced": traced}


def machine() -> str:
    import scipy
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return (f"{os.cpu_count()} CPUs, {mem:.0f} GB, {platform.system()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}; runs one at a time")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--change", required=True,
                   help="git revision, or . for the working tree")
    p.add_argument("--batch", action="append", default=[],
                   help="workload:first-last, one pair per seed")
    p.add_argument("--traced", action="append", default=[],
                   help="workload:seed, one traced run per side")
    p.add_argument("--claim", help="workload:metric:percent")
    p.add_argument("--what", required=True)
    p.add_argument("--note", default="", help="appended to the machine line")
    p.add_argument("--workdir", help="where the copies go")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    change = "the working tree" if args.change == "." else git(
        "rev-parse", args.change)
    batches = [parse_seeds(b) for b in args.batch]
    traced = [parse_seeds(t) for t in args.traced]
    seeds = "; ".join(
        [f"batch {i + 1}: {w} {s[0]}-{s[-1]}, one pair per seed"
         for i, (w, s) in enumerate(batches)]
        + [f"traced {w} {', '.join(map(str, s))}, parent first"
           for w, s in traced]
        + ["even pairs run the parent first, odd pairs the change first, "
           "and each run's first field records it"])
    doc = {
        "what": args.what,
        "parent_commit": parent_commit,
        "command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {seconds:g} --trace 0, run in a fresh "
                    f"copy of each side's files (git archive of the parent; "
                    f"the change: {change}); the traced runs use --trace 1; "
                    f"pairs by tools/bench_pairs.py"),
        "seeds": seeds,
        "machine": machine() + (f"; {args.note}" if args.note else ""),
        "quartiles": "numpy.percentile, linear interpolation, over the runs "
                     "of one side",
        "claim": None, "summary": {}, "runs": [], "traced_runs": [],
    }
    out = Path(args.out)

    def save():
        doc["summary"] = summarize(doc["runs"], spec)
        if args.claim:
            doc["claim"] = judge(args.claim, doc["runs"], doc["traced_runs"],
                                 spec)
        out.write_text(json.dumps(doc, indent=1) + "\n")

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        copies = {"parent": work / "parent", "change": work / "change"}
        checkout(args.parent, copies["parent"])
        checkout(args.change, copies["change"])
        for number, (workload, seeds_) in enumerate(batches, 1):
            for pair, seed in enumerate(seeds_):
                order = (("parent", "change") if pair % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    doc["runs"].append({
                        "workload": workload, "batch": number, "pair": pair,
                        "seed": seed, "side": side, "first": order[0],
                        **run_bench(copies[side], workload, seed,
                                    seconds, 0)})
                    save()
        for workload, seeds_ in traced:
            for seed in seeds_:
                for side in ("parent", "change"):
                    doc["traced_runs"].append({
                        "workload": workload, "seed": seed, "side": side,
                        "trace": 1,
                        **run_bench(copies[side], workload, seed,
                                    seconds, 1)})
                    save()
        save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in doc["runs"] + doc["traced_runs"]
              if r["returncode"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
