"""Tests of the benchmark's own code: span arithmetic, failure counting and
tiny-size runs of every workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from gridcycle import CounterexampleError  # noqa: E402
from spans import Span, Tracer, self_time_by_op, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SMALL = {"build": {"n": 16}, "lower": {"sizes": (25, 30)},
         "exhaustive": {}, "sample": {"n": 8}}
COUNTS = {"build": ["tree.bytes_written", "tree.chords", "tree.max_depth"],
          "lower": ["expanded.contracts", "expanded.witnesses",
                    "expanded.duplicates_out", "expanded.xedges_out"],
          "exhaustive": ["search.trees_scanned"],
          "sample": ["search.evaluations", "search.L_drop", "matroid.nnz"]}


def small(name, tmp_path, seed=7):
    w = workloads.WORKLOADS[name](seed, tmp_path, **SMALL[name])
    w.setup()
    return w


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "d", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 6.0, 0, 0),
        Span(4, "r", 11.0, 13.0, None, 0),  # replay, a sibling of the op
        Span(5, "op", 20.0, 30.0, None, 1),
        Span(6, "a", 21.0, 25.0, 5, 1),
        Span(7, "a", 24.0, 27.0, 5, 1),  # overlaps its sibling
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0,
                                 5: 4.0, 6: 4.0, 7: 3.0}
    by_op = self_time_by_op(spans)
    assert dict(by_op[0]) == {"op": 6.0, "a": 2.0, "d": 1.0, "b": 1.0,
                              "r": 2.0}
    assert dict(by_op[1]) == {"op": 4.0, "a": 7.0}


def test_tracer_records_parents_only_when_enabled():
    tr = Tracer()
    assert tr.call("x", max, 1, 2) == 2
    assert tr.spans == []
    tr.enabled, tr.op = True, 3
    with tr.span("outer"):
        tr.call("inner", max, 1, 2)
    inner, outer = sorted(tr.spans, key=lambda sp: sp.name)
    assert (outer.parent, inner.parent, inner.op) == (None, outer.id, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize("breakage", ["check", "raise"])
def test_a_failed_operation_raises_the_fail_ratio(tmp_path, breakage):
    w = small("build", tmp_path)
    if breakage == "check":
        w.PINS = {16: (1975, 1970)}
    else:
        def op(k, tr):
            raise CounterexampleError("planted")
        w.op = op
    ops = run.run_ops(w, 0, False, Tracer())
    failed = sum(not o.ok for o in ops)
    assert len(ops) == 1 and failed / len(ops) == 1.0
    assert run.end_to_end(ops, 0.5)["ops_per_s"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tiny_run_passes_its_checks(name, tmp_path):
    w = small(name, tmp_path)
    ops = run.run_ops(w, 0, False, Tracer())
    assert ops and all(o.ok for o in ops)
    metrics = run.end_to_end(ops, 0.5)
    assert sorted(metrics) == sorted(END_TO_END)
    assert all(v > 0 for v in metrics.values())

    tr = Tracer()
    ops = run.run_ops(w, 0, True, tr)
    assert len(ops) == 2 * w.period and all(o.ok for o in ops)
    metrics = run.per_layer(w, ops, tr, PER_LAYER)
    assert sorted(metrics) == sorted(PER_LAYER)
    assert all(metrics[c] > 0 for c in COUNTS[name])


def test_counts_repeat_for_a_seed(tmp_path):
    def counts(name):
        w = small(name, tmp_path)
        tr = Tracer()
        metrics = run.per_layer(w, run.run_ops(w, 0, True, tr), tr, PER_LAYER)
        return {c: metrics[c] for c in COUNTS[name]}

    for name in SMALL:
        assert counts(name) == counts(name)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
