import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "op_s.p50", "better": "lower"},
                       {"name": "ops_per_s", "better": "higher"}]}


def run(batch, pair, side, op_s, failed=0):
    return {"workload": "build", "batch": batch, "pair": pair, "side": side,
            "result": {"failed": failed, "attempted": 10, "metrics": {
                "op_s.p50": {"value": op_s}, "ops_per_s": {"value": 1 / op_s}}}}


def batch_runs(batch, parent, change):
    return [r for i, (p, c) in enumerate(zip(parent, change))
            for r in (run(batch, i, "parent", p), run(batch, i, "change", c))]


def test_claim_needs_nine_wins_the_gain_and_the_quartile_gap():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]
    runs = batch_runs(1, parent, [0.7] * 10)
    claim = bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)
    assert claim["met"]
    (row,) = claim["batches"]
    assert row["change_better_pairs"] == 10 and row["pairs"] == 10
    assert row["change_minus_parent_pct"] == -30.0
    assert row["median_difference"] == pytest.approx(0.3)
    # Two lost pairs, or a gain below the target, fail the claim; so does
    # one failing batch of two.
    lost = batch_runs(1, parent, [0.7] * 8 + [1.3, 1.3])
    assert not bench_pairs.judge("build:op_s.p50:20", lost, [], SPEC)["met"]
    assert not bench_pairs.judge("build:op_s.p50:40", runs, [], SPEC)["met"]
    both = runs + batch_runs(2, parent, parent)
    claim = bench_pairs.judge("build:op_s.p50:20", both, [], SPEC)
    assert [b["met"] for b in claim["batches"]] == [True, False]
    assert not claim["met"]


def test_claim_counts_unfinished_pairs_and_failed_operations():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1]
    runs = batch_runs(1, parent, [0.7] * 10)
    # A change run that did not finish loses its pair: 9 of 10 still meet
    # the claim, 7 of 10 do not, and the pairs run stay the denominator.
    runs[1]["result"] = None
    (row,) = bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)["batches"]
    assert (row["change_better_pairs"], row["finished_pairs"],
            row["pairs"]) == (9, 9, 10)
    assert row["met"]
    for i in (3, 5):
        runs[2 * i + 1]["result"] = None
    claim = bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)
    (row,) = claim["batches"]
    assert (row["change_better_pairs"], row["pairs"]) == (7, 10)
    assert not row["met"] and not claim["met"]
    # No finished change run at all: nothing to compare, not met.
    for r in runs[1::2]:
        r["result"] = None
    (row,) = bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)["batches"]
    assert row["change"] is None and not row["met"]
    # More failed operations on the change's side fail the claim.
    runs = batch_runs(1, parent, [0.7] * 10)
    runs[1]["result"]["failed"] = 1
    (row,) = bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)["batches"]
    assert row["failed_ops"] == {"parent": 0, "change": 1}
    assert not row["met"]
    runs[0]["result"]["failed"] = 1
    assert bench_pairs.judge("build:op_s.p50:20", runs, [], SPEC)["met"]


def test_summary_pairs_sides_and_counts_failures():
    runs = batch_runs(1, [1.0, 2.0], [0.5, 3.0])
    runs[1]["result"]["failed"] = 2
    runs.append(run(1, 2, "parent", 1.0))  # a pair with one side only
    summary = bench_pairs.summarize(runs, SPEC)["build"]
    assert summary["op_s.p50"]["pairs"] == 2
    assert summary["op_s.p50"]["finished_pairs"] == 2
    assert summary["op_s.p50"]["change_better_pairs"] == 1
    assert summary["ops_per_s"]["change_better_pairs"] == 1
    assert summary["failed_over_attempted"] == {"parent": [0, 30],
                                                "change": [2, 20]}
    assert bench_pairs.parse_seeds("build:4101-4103") == ("build",
                                                          [4101, 4102, 4103])
    assert bench_pairs.parse_seeds("build:7") == ("build", [7])
