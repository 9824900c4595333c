"""Smoke runs of the scripts through their main(argv)."""

import csv
import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KERNEL_COSTS_HEADER = ("kernel,cpu_ms_p50,cpu_ms_p25,cpu_ms_p75,round_p50_min,round_p50_max,"
                       "minor_faults_per_call")


def _kernel_cost_rows(lines):
    rows = list(csv.reader(lines[1:]))
    for _, p50, p25, p75, low, high, faults in rows:
        assert 0.0 < float(p25) <= float(p50) <= float(p75)
        assert 0.0 < float(low) <= float(p50) <= float(high)
        assert float(faults) >= 0.0
    return rows


def test_kernel_costs_runs(capsys, monkeypatch):
    # every kernel is measured in this process in place of its child's
    # reply; then real children measure the polish row, which main needs,
    # and the record row
    module = _load("kernel_costs")

    def child(cmd, **kwargs):
        name = cmd[cmd.index("--child") + 1]
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(module.measure(name, 2, 1)))

    monkeypatch.setattr(module.subprocess, "run", child)
    code = module.main(["--calls", "2", "--warmup", "1"])
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert code == 0
    assert lines[0] == KERNEL_COSTS_HEADER
    assert [row[0] for row in _kernel_cost_rows(lines)] == [
        "min_isotropic(4096)", "min_isotropic(4096,-)", "min_isotropic(4096,unpolished)",
        "min_isotropic(4096,-,unpolished)", "polish(4096)", "average(5e4)", "gaussian_rows(1024)",
        "haar_quaternions(1024)", "hopf_values(1024)", "moment(1024)", "invariance_probe(n=8)",
        "integrate(10 steps)", "quadratic(8 operators)", "quadratic(1 operator)",
        "rk4_step(8 operators)", "record(4 steps x 8)", "margins(1 operator)", "margins(32 operators)",
    ]
    assert out.err.startswith("# polish(4096) steps and stop over 2 calls: ")

    monkeypatch.undo()
    rows = {name: module._kernels()[name] for name in (module.POLISH_ROW, "record(4 steps x 8)")}
    monkeypatch.setattr(module, "_kernels", lambda: rows)
    assert module.main(["--calls", "2", "--warmup", "1"]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == KERNEL_COSTS_HEADER
    assert [row[0] for row in _kernel_cost_rows(lines)] == [module.POLISH_ROW, "record(4 steps x 8)"]
    assert out.err.startswith("# polish(4096) steps and stop over 2 calls: ")


def test_kernel_costs_rounds_alternate_and_take_the_median_of_round_medians(capsys, monkeypatch):
    # each child's reply is faked: in round k every kernel reads a median of
    # k + 1 ms, and the polish row two steps to the gradient stop, 3 calls
    module = _load("kernel_costs")
    order = []

    def child(cmd, **kwargs):
        name = cmd[cmd.index("--child") + 1]
        order.append(name)
        k = order.count(name) - 1
        res = {"cpu_ms_p50": k + 1.0, "cpu_ms_p25": k + 0.5, "cpu_ms_p75": k + 1.5,
               "faults_per_call": 2.0 * k, "outcomes": {"2 gradient": 3}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(res))

    monkeypatch.setattr(module.subprocess, "run", child)
    assert module.main(["--rounds", "3"]) == 0
    names = list(module._kernels())
    assert order == names + names[::-1] + names
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == KERNEL_COSTS_HEADER
    rows = _kernel_cost_rows(lines)
    assert [row[0] for row in rows] == names
    assert all(row[1:] == ["2.0000", "1.5000", "2.5000", "1.0000", "3.0000", "2.0"] for row in rows)
    assert out.err == "# polish(4096) steps and stop over 9 calls: 2 gradient: 9\n"


def _in_git_work_tree():
    try:
        proc = subprocess.run(["git", "-C", str(SCRIPTS.parent), "rev-parse", "--is-inside-work-tree"],
                              capture_output=True, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() == "true"


@pytest.mark.skipif(not _in_git_work_tree(), reason="needs a git work tree")
def test_ab_bench_writes_its_schema(tmp_path):
    out = tmp_path / "ab.json"
    args = ["HEAD", "--workloads", "cli_ops", "--pairs", "1", "--seconds", "0.1", "--out", str(out)]
    assert _load("ab_bench").main(args) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"command", "parent", "change", "host", "pairs", "seconds", "order",
                        "summary", "runs", "aa"}
    assert len(doc["parent"]) == 40 and doc["pairs"] == 1
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    summary = doc["summary"]["cli_ops"]
    assert list(summary) == names
    (run,) = doc["runs"]["cli_ops"]
    for m in spec:
        row = summary[m["name"]]
        assert set(row) == {"unit", "better", "parent_median", "parent_q1_q3", "change_median",
                            "change_q1_q3", "change_wins", "pairs", "hl_shift", "sign_test_p",
                            "aa_rel_diff"}
        assert (row["unit"], row["better"], row["pairs"]) == (m["unit"], m["better"], 1)
        assert row["change_wins"] in (0, 1) and len(row["parent_q1_q3"]) == 2
        # one pair: its difference is the shift, and a single pair has p = 1
        assert row["hl_shift"] == pytest.approx(run["change"][m["name"]] - run["parent"][m["name"]])
        assert row["sign_test_p"] == 1.0
    assert run["first"] == "parent"
    for side in (run["parent"], run["change"], doc["aa"]["cli_ops"]["parent_again"]):
        assert side["correct"] and side["failed"] == 0
        assert set(names) <= set(side)


def test_ab_bench_shift_and_sign_test():
    ab = _load("ab_bench")
    # Walsh averages of (1, 2, 10): 1, 1.5, 2, 5.5, 6, 10, median 3.75
    assert ab._hl_shift([1.0, 2.0, 10.0]) == 3.75
    assert ab._hl_shift([-1.0]) == -1.0
    # 5 of 5 untied pairs one way: p = 2 / 32; ties drop out
    assert ab._sign_test_p([1.0, 2.0, 0.0, 3.0, 4.0, 5.0]) == 2.0 / 32.0
    # 4 up, 1 down: p = 2 (1 + 5) / 32
    assert ab._sign_test_p([1.0, -2.0, 3.0, 4.0, 5.0]) == 12.0 / 32.0
    assert ab._sign_test_p([0.0, 0.0]) == 1.0
    assert ab._sign_test_p([1.0, -1.0]) == 1.0


def test_golden_outputs_are_reproducible(tmp_path):
    golden = _load("golden_outputs")
    trees = []
    for name in ("a", "b"):
        assert golden.main([str(tmp_path / name)]) == 0
        root = tmp_path / name
        trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    files = {str(p) for p in trees[0]}
    assert {"verify/averaging.txt", "cp2/flow.csv", "models/sphere.json"} <= files
    assert trees[0][Path("witness_eligible/witness.txt")].startswith(b"exit 0\n")



def _golden_tree(root, matrix, n=3, text="PASS\n"):
    root.mkdir()
    doc = {"factor": "left", "n": n, "operator": {"basis": "e12", "matrix": matrix.tolist()}}
    (root / "average_left.json").write_text(json.dumps(doc))
    (root / "verify.txt").write_text(text)
    return str(root)


def test_golden_compare_forgives_rounding_only(tmp_path, capsys):
    golden = _load("golden_outputs")
    matrix = 0.3 * np.eye(6)
    ulp = matrix.copy()
    ulp[1, 1] = np.nextafter(0.3, 1.0)
    old = _golden_tree(tmp_path / "old", matrix)
    cases = [
        (_golden_tree(tmp_path / "ulp", ulp), 0, "ok   average_left.json"),
        (_golden_tree(tmp_path / "far", matrix + 1e-12), 1, "FAIL average_left.json: worst"),
        (_golden_tree(tmp_path / "keyed", matrix, n=4), 1, "FAIL average_left.json: differs"),
        (_golden_tree(tmp_path / "text", matrix, text="FAIL\n"), 1, "FAIL verify.txt: differs"),
    ]
    for new, code, line in cases:
        assert golden.main(["--compare", old, new]) == code
        assert line in capsys.readouterr().out
