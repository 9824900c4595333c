"""Smoke runs of the experiment scripts through their main(argv)."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [(), ("--invert",)])
def test_probe_invariance_runs(capsys, extra):
    code = _load("probe_invariance").main(["--n", "2", *extra])
    out = capsys.readouterr().out
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [rep["cone"] for rep in reports] == ["scal", "ic_plus", "ic_minus", "ic"]
    assert all(rep["n"] == 2 for rep in reports)


def test_averaging_decay_runs(capsys):
    code = _load("averaging_decay").main(["--ops", "2", "--rungs", "2", "--n-min", "200"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "n,gmean_error,ratio_to_prev"
    assert [line.split(",")[0] for line in lines[1:]] == ["200", "800"]


def test_kernel_costs_runs(capsys):
    code = _load("kernel_costs").main(["--calls", "2", "--warmup", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "kernel,cpu_ms_p50,cpu_ms_p25,cpu_ms_p75,minor_faults_per_call"
    rows = list(csv.reader(lines[1:]))
    assert [row[0] for row in rows] == [
        "min_isotropic(4096)", "min_isotropic(4096,-)", "min_isotropic(4096,unpolished)",
        "min_isotropic(4096,-,unpolished)", "average(5e4)", "invariance_probe(n=8)",
        "integrate(10 steps)", "quadratic(8 operators)", "quadratic(1 operator)",
        "rk4_step(8 operators)", "margins(1 operator)", "margins(32 operators)",
    ]
    for _, p50, p25, p75, faults in rows:
        assert 0.0 < float(p25) <= float(p50) <= float(p75)
        assert float(faults) >= 0.0


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
