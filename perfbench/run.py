"""Run one gridcycle benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload build --seed 1 --seconds 24 --trace 0

Operations run one after another in this process and thread for at most
``--seconds`` of summed operation time, and at least one operation.  Each
operation's output is checked outside its timing; a failed check counts
against the run and does not stop it.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` reports its per-layer metrics: every other operation (group of
operations, for ``lower``) is traced, the others give the untraced time
that the tracing overhead is measured against.  Spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, self_time_by_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up interpreters per untraced run: half before the operations, half
# after, so that one slow stretch of the machine does not make them all slow.
SETUP_REPEATS = 8
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    k: int
    seconds: float
    ok: bool
    traced: bool
    counts: dict = field(default_factory=dict)


def run_ops(workload, seconds: float, trace: bool, tr: Tracer) -> list[Op]:
    """Run, check and (when traced) replay operations until one more group
    of operations would, at the mean pace so far, take their summed time
    past ``seconds``."""
    period = workload.period
    # A traced run needs at least one traced and one untraced group.
    min_ops = 2 * period if trace else period
    ops: list[Op] = []
    timed = 0.0
    k = 0
    while k < min_ops or k % period or timed + period * timed / k <= seconds:
        traced = trace and (k // period) % 2 == 0
        tr.enabled, tr.op = traced, k
        out, counts, error = None, {}, None
        gc.collect()  # every operation starts with the same collector state
        start = time.perf_counter()
        try:
            with tr.span("op"):
                out = workload.op(k, tr)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        timed += elapsed
        if error is None:
            try:
                if traced:
                    counts = workload.replay(k, out, tr)
                tr.enabled = False
                workload.check(k, out)
            except Exception:
                error = traceback.format_exc()
        tr.enabled = False
        if error is not None:
            sys.stderr.write(f"{workload.name} operation {k} failed:\n{error}")
        ops.append(Op(k, elapsed, error is None, traced, counts))
        out = None  # free this operation's output before the next one runs
        k += 1
    return ops


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    ok = [o.seconds for o in ops if o.ok]
    return {
        "op_s.p50": statistics.median(ok or [o.seconds for o in ops]),
        "ops_per_s": len(ok) / sum(o.seconds for o in ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, ops: list[Op], tr: Tracer, names) -> dict:
    """Per-layer metrics of the traced operations that passed their checks.

    Times are per-operation means of summed span self times; counts are
    summed over the first group of operations, so they repeat exactly for a
    seed; every metric a workload does not exercise is 0.
    """
    traced = [o for o in ops if o.traced and o.ok]
    untraced = [o.seconds for o in ops if not o.traced and o.ok]
    if not traced or not untraced:
        raise RuntimeError("no traced or no untraced operation passed")
    own = self_time_by_op(tr.spans)
    rows = [{f"{name}_s": t for name, t in own[o.k].items() if name != "op"}
            | o.counts for o in traced]
    keys = set().union(*rows)
    mean = {key: sum(r.get(key, 0) for r in rows) / len(rows) for key in keys}
    op_span = {sp.op: sp.duration for sp in tr.spans if sp.name == "op"}
    op_times = [op_span[o.k] for o in traced]
    mean["trace.op_s.mean"] = statistics.mean(op_times)
    metrics = dict.fromkeys(names, 0)
    metrics.update((key, v) for key, v in mean.items() if key.endswith("_s"))
    first = [o for o in traced if o.k < workload.period]
    for key in set().union(*(o.counts for o in first)):
        metrics[key] = sum(o.counts.get(key, 0) for o in first)
    metrics.update(workload.derive(mean))
    metrics["trace.op_s.p50"] = statistics.median(op_times)
    metrics["trace.op_s.mean"] = mean["trace.op_s.mean"]
    metrics["trace.overhead_s"] = (metrics["trace.op_s.p50"]
                                   - statistics.median(untraced))
    return metrics


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Wall times of fresh processes that import gridcycle and build the
    workload's shared inputs: what a command-line user pays per call."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"import workloads; w = workloads.WORKLOADS[{name!r}]({seed}); "
            "w.setup()")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "gridcycle").is_dir() or not spec_file.is_file():
        sys.stderr.write(f"error: {SRC / 'gridcycle'} or {spec_file} is missing;"
                         " run from a gridcycle checkout\n")
        return 2
    spec = json.loads(spec_file.read_text())
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    os.environ.pop("GRIDCYCLE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads  # after the settings above: numpy reads them on import

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.setup()
        tr = Tracer()
        if not args.trace:
            setup = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
        ops = run_ops(w, args.seconds, bool(args.trace), tr)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = per_layer(w, ops, tr, names)
            tr.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            setup += measure_setup(args.workload, args.seed,
                                   SETUP_REPEATS - len(setup))
            values = end_to_end(ops, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do "
                           "not match BENCHMARK.json")
    failed = sum(not o.ok for o in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
