"""Smoke runs of the experiment scripts through their main(argv)."""

import importlib.util
import json
from pathlib import Path

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
