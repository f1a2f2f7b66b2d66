import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reference_stats_csv, reference_tree_file
from gridcycle import construction
from gridcycle.cli import main
from gridcycle.tree import SpanningTree


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_reports_totals(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "4")
    assert code == 0
    assert "L 42" in out
    assert "max_depth 6 bound 6 ok" in out


def test_build_n1(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "1")
    assert code == 0
    assert "L 0" in out
    assert "average -" in out


def test_build_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "build", "--n", "0")
    assert code == 1


def test_build_refuses_side_past_int32(capsys, monkeypatch):
    # The side is checked before any O(n^2) array is built.
    def no_edges(n):
        raise AssertionError("edge ids built for an unsupported side")

    monkeypatch.setattr(construction, "_edge_ids", no_edges)
    code, out, err = run_cli(capsys, "build", "--n", "46341")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "46341" in err


def test_build_writes_tree_file(tmp_path, capsys):
    path = tmp_path / "t5.txt"
    code, out, _ = run_cli(capsys, "build", "--n", "5", "--out", str(path))
    assert code == 0
    t = SpanningTree.from_file(path)
    assert t.n == 5
    assert t.total_length().L_total == 80


def test_verify_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,L,L_bound,")
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "8"]
    by_n = {r[0]: r for r in rows}
    assert by_n["2"][1] == "4"
    assert by_n["3"][1] == "16"
    assert all(r[-1] == "True" for r in rows)


def test_verify_rejects_n_max_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "1")
    assert code == 1


def test_verify_io_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "4", "--out",
                           "/nonexistent-dir/sweep.csv")
    assert code == 2


def test_lower_trivial_bound(capsys):
    code, out, _ = run_cli(capsys, "lower", "--n", "2", "--trees", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["bound_num"] == 0


def test_lower_g5(capsys):
    code, out, _ = run_cli(capsys, "lower", "--n", "5", "--trees", "3")
    assert code == 0
    payload = json.loads(out)
    assert all(r["lstar"] >= 32 for r in payload["reports"])
    assert payload["witness_count"] == 3


def test_lower_divisible_by_five_nonpower(capsys):
    code, out, _ = run_cli(capsys, "lower", "--n", "10", "--trees", "2")
    assert code == 0
    payload = json.loads(out)
    for rep in payload["reports"]:
        assert rep["form"] == "general"
        assert len(rep["witnesses"]) == 2
        assert rep["sub"]["n"] == 5


def test_lower_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "lower", "--n", "5", "--trees", "2",
                         "--seed", "9")
    _, out2, _ = run_cli(capsys, "lower", "--n", "5", "--trees", "2",
                         "--seed", "9")
    assert out1 == out2


def test_search_exhaustive_g3(capsys, tmp_path):
    witness = tmp_path / "w.txt"
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--exhaustive",
                           "--out", str(witness))
    assert code == 0
    assert "192 trees scanned" in out
    assert "minimum L 16" in out
    record = json.loads(out.strip().splitlines()[-1])
    assert record == {"n": 3, "mode": "exhaustive", "value": 16,
                      "tree_file": str(witness)}
    assert SpanningTree.from_file(witness).total_length().L_total == 16


def test_search_exhaustive_refused_above_limit(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "5", "--exhaustive")
    assert code == 1
    assert "sampling" in err


def test_search_sampling_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "5", "--trees", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,seed,L,avg_num,avg_den"
    assert len(lines) == 1 + 3 + 1
    record = json.loads(lines[-1])
    assert record["mode"] == "sample"


def test_export_t3(capsys, tmp_path):
    tree_path = tmp_path / "t3.txt"
    run_cli(capsys, "build", "--n", "3", "--out", str(tree_path))
    code, out, _ = run_cli(capsys, "export", "--n", "3", "--tree",
                           str(tree_path))
    assert code == 0
    assert out.splitlines()[0] == "8 12 20"


def test_export_mismatched_tree(capsys, tmp_path):
    tree_path = tmp_path / "t3.txt"
    run_cli(capsys, "build", "--n", "3", "--out", str(tree_path))
    code, _, err = run_cli(capsys, "export", "--n", "4", "--tree",
                           str(tree_path))
    assert code == 1


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("n 4\n", 2),
    ("n 4\nroot 4 1\n0\nseven\n", 4),
    ("n 4\nroot 4 1\n0 1\n", 3),
])
def test_export_malformed_tree_file(capsys, tmp_path, text, line):
    tree_path = tmp_path / "bad.txt"
    tree_path.write_text(text)
    code, out, err = run_cli(capsys, "export", "--n", "4", "--tree",
                             str(tree_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {tree_path}:{line}: ")
    assert len(err.splitlines()) == 1


def test_export_tree_file_id_past_int64(capsys, tmp_path):
    tree_path = tmp_path / "big.txt"
    tree_path.write_text("n 2\nroot 1 1\n0\n1\n99999999999999999999\n")
    code, out, err = run_cli(capsys, "export", "--n", "2", "--tree",
                             str(tree_path))
    assert code == 1
    assert out == ""
    assert err == "error: edge id 99999999999999999999 is not a host edge\n"


def test_build_files_match_reference_writers(capsys, tmp_path):
    tree_path, csv_path = tmp_path / "t64.txt", tmp_path / "t64.csv"
    code, out, _ = run_cli(capsys, "build", "--n", "64", "--out",
                           str(tree_path), "--csv-out", str(csv_path))
    assert code == 0
    assert out.splitlines()[0] == f"tree written to {tree_path}"
    t = construction.build_tree(64)
    assert tree_path.read_bytes() == reference_tree_file(t)
    assert csv_path.read_bytes() == reference_stats_csv(t.total_length())
    # The 1-grid's file has no edge lines, and reads back.
    code, _, _ = run_cli(capsys, "build", "--n", "1", "--out", str(tree_path))
    assert code == 0
    assert tree_path.read_bytes() == b"n 1\nroot 1 1\n"
    assert SpanningTree.from_file(tree_path).root == (1, 1)


def test_threads_env_does_not_change_output(capsys, monkeypatch):
    _, base, _ = run_cli(capsys, "verify", "--n-max", "5")
    monkeypatch.setenv("GRIDCYCLE_THREADS", "3")
    _, threaded, _ = run_cli(capsys, "verify", "--n-max", "5")
    assert base == threaded


def test_counterexample_exit_code(capsys, monkeypatch):
    import gridcycle.cli as cli
    from gridcycle.errors import CounterexampleError

    def boom(h, t):
        raise CounterexampleError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "lemma_lower_check", boom)
    code, _, err = run_cli(capsys, "lower", "--n", "5", "--trees", "1")
    assert code == 3
    assert "counterexample" in err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gridcycle.cli", "build", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "L 4" in proc.stdout


def test_import_loads_no_networkx():
    """networkx is a test dependency only: importing the package, as every
    CLI call does, must not load it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gridcycle, sys; assert 'networkx' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
