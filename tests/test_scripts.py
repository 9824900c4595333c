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
