"""Command line interface: subcommands, exit codes, and output stability."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from halfpic import cli
from halfpic import cones
from halfpic import curvature as cv
from halfpic import flow
from halfpic import lambda2 as l2


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def op_path(tmp_path):
    path = tmp_path / "op.json"
    cv.write_operator(cv.model("cp2", 12.0), path)
    return str(path)


# -- models --------------------------------------------------------------------


def test_models_prints_the_operator(capsys):
    code, out, _ = _run(capsys, "models", "--name", "sphere", "--scal", "12")
    assert code == 0
    np.testing.assert_array_equal(cv.operator_from_json(json.loads(out)), np.eye(6))


def test_models_writes_a_loadable_file(tmp_path, capsys):
    dest = tmp_path / "m.json"
    code, out, _ = _run(capsys, "models", "--name", "cp2", "--out", str(dest))
    assert code == 0 and out == ""
    np.testing.assert_array_equal(cv.read_operator(dest), cv.model("cp2", 12.0))


def test_models_rejects_unknown_name(capsys):
    code, _, err = _run(capsys, "models", "--name", "flat")
    assert code == 1
    assert "invalid choice" in err


def test_models_rejects_a_non_finite_scal(capsys):
    # the scale is refused before any arithmetic, so numpy never warns
    for scal in ("inf", "1e400", "nan"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, "models", "--name", "sphere", "--scal", scal)
        assert code == 1 and out == "", scal
        assert "scale must be finite" in err
        assert "RuntimeWarning" not in err and caught == []


# -- classify / decompose ------------------------------------------------------


def test_classify_reports_margins_and_class(capsys, op_path):
    code, out, _ = _run(capsys, "classify", "--input", op_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "NNIC"
    assert doc["ic_minus"] == pytest.approx(2.0, abs=1e-12)
    assert doc["ic_plus"] == pytest.approx(0.0, abs=1e-12)


def test_classify_output_is_byte_stable(capsys, op_path):
    _, out1, _ = _run(capsys, "classify", "--input", op_path)
    _, out2, _ = _run(capsys, "classify", "--input", op_path)
    assert out1 == out2


def test_classify_rejects_a_negative_or_non_finite_tol(tmp_path, capsys):
    # a PIC- operator: --tol -1 would print PIC and --tol nan neither
    path = tmp_path / "pic_minus.json"
    cv.write_operator(cones.shift_to_margin(cv.model("cp2", 12.0), "ic", -0.1), path)
    code, out, _ = _run(capsys, "classify", "--input", str(path), "--tol", "0")
    assert code == 0 and json.loads(out)["class"] == "PIC-"
    for tol in ("-1", "nan", "inf"):
        code, out, err = _run(capsys, "classify", "--input", str(path), "--tol", tol)
        assert code == 1 and out == "", tol
        assert "tol must be finite and nonnegative" in err


def test_decompose_reports_blocks_and_spectra(capsys, op_path):
    code, out, _ = _run(capsys, "decompose", "--input", op_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["scal"] == pytest.approx(12.0)
    np.testing.assert_allclose(
        sorted(doc["spectra"]["wplus"]), [-1.0, -1.0, 2.0], atol=1e-12
    )
    assert np.abs(np.array(doc["ric0"])).max() <= 1e-12


# -- distinct failure modes, all exit 1 ---------------------------------------


def test_exit_codes_for_bad_operator_files(tmp_path, capsys):
    cases = {
        "malformed.json": ("{ nope", "malformed JSON"),
        "basis.json": (json.dumps({"basis": "xy", "matrix": np.eye(6).tolist()}), "basis mismatch"),
        "asym.json": (
            json.dumps({"basis": cv.BASIS_STRING, "matrix": (np.eye(6) + np.triu(np.full((6, 6), 0.5), 1)).tolist()}),
            "symmetric",
        ),
    }
    for fname, (text, needle) in cases.items():
        p = tmp_path / fname
        p.write_text(text)
        code, _, err = _run(capsys, "classify", "--input", str(p))
        assert code == 1, fname
        assert needle in err, fname


@pytest.mark.parametrize("entry", ['"1"', '"1e0"', "true", "null"])
def test_classify_rejects_entries_that_are_not_numbers(tmp_path, capsys, entry):
    text = json.dumps(cv.operator_to_json(np.eye(6))).replace("1.0", entry, 1)
    p = tmp_path / "op.json"
    p.write_text(text)
    code, out, err = _run(capsys, "classify", "--input", str(p))
    assert code == 1
    assert out == ""
    assert "not numeric" in err


def test_exit_code_for_missing_file(capsys):
    code, _, err = _run(capsys, "classify", "--input", "no/such/file.json")
    assert code == 1
    assert "file" in err.lower()


def test_exit_code_for_bianchi_invalid_input(tmp_path, capsys):
    p = tmp_path / "star.json"
    p.write_text(json.dumps(cv.operator_to_json(l2.HODGE_STAR)))
    code, _, err = _run(capsys, "decompose", "--input", str(p))
    assert code == 1
    assert "Bianchi" in err


# -- flow ----------------------------------------------------------------------


def test_flow_writes_csv_and_snapshots(tmp_path, capsys, op_path):
    csv_path = tmp_path / "traj.csv"
    snap_path = tmp_path / "snaps.json"
    code, out, _ = _run(
        capsys, "flow", "--input", op_path, "--t-max", "0.01", "--dt", "1e-3",
        "--out", str(csv_path), "--snapshots-out", str(snap_path),
    )
    assert code == 0
    assert "termination=completed" in out
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "t,scal,margin_scal,margin_icplus,margin_icminus,margin_ic,norm"
    assert len(lines) == 12
    snaps = json.loads(snap_path.read_text())
    assert len(snaps) == 11
    assert snaps[0]["t"] == 0.0


def test_flow_to_stdout_is_deterministic(capsys, op_path):
    args = ("flow", "--input", op_path, "--t-max", "0.01", "--dt", "1e-3")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    assert out1.startswith("t,scal,")


def test_flow_cones_needs_at_least_one_name(capsys, op_path):
    # an empty --cones would otherwise be read as every cone or as none
    code, out, err = _run(capsys, "flow", "--input", op_path, "--cones")
    assert code == 1 and out == ""
    assert "expected at least one argument" in err


def test_flow_rejects_bad_steps(capsys, op_path):
    code, _, err = _run(capsys, "flow", "--input", op_path, "--t-max", "0.01", "--dt", "0.5")
    assert code == 1
    assert "smaller than t_max" in err


def test_flow_rejects_non_finite_parameters(tmp_path, capsys, op_path):
    dest = tmp_path / "traj.csv"
    cases = [
        (("--t-max", "nan"), "t_max"),
        (("--t-max", "inf", "--dt", "1e-3"), "t_max"),
        (("--t-max", "0.01", "--dt", "nan"), "dt must be finite"),
        (("--t-max", "0.01", "--blowup-norm", "nan"), "blowup_norm"),
        (("--t-max", "0.01", "--dt", "1e-3", "--blowup-norm", "-1"), "blowup_norm must be positive"),
        (("--t-max", "0.01", "--margin-floor", "nan"), "margin_floor"),
    ]
    for extra, needle in cases:
        code, out, err = _run(capsys, "flow", "--input", op_path, *extra, "--out", str(dest))
        assert code == 1 and out == "", extra
        assert needle in err, extra
        assert not dest.exists()


# -- verify --------------------------------------------------------------------


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_suites_pass(capsys, suite):
    code, out, _ = _run(capsys, "verify", "--suite", suite, "--samples", "40")
    assert code == 0
    assert "FAIL" not in out
    assert f"suite {suite}:" in out


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_rejects_samples_below_one(capsys, suite):
    # zero or negative samples would run no check and print vacuous PASS lines
    for samples in ("0", "-3"):
        code, out, err = _run(capsys, "verify", "--suite", suite, "--samples", samples)
        assert code == 1 and out == "", (suite, samples)
        assert f"--samples must be positive, got {samples}" in err


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_rejects_a_negative_seed(capsys, suite):
    # numpy's own refusal would not name the option
    code, out, err = _run(capsys, "verify", "--suite", suite, "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


def _failed_lines(out):
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_averaging_catches_a_biased_haar_sampler(capsys, monkeypatch):
    # draws pulled towards 1 before normalising: the factor averages stay
    # inside their 1/sqrt(n) band, the moments of the draws do not
    name = "Haar draws have the uniform moments through degree four (n=20000)"
    code, out, _ = _run(capsys, "verify", "--suite", "averaging")
    assert code == 0 and f"PASS {name}: " in out
    monkeypatch.setattr(
        l2, "haar_quaternions",
        lambda rng, n: l2._unit_rows(rng.standard_normal((int(n), 4)) + (0.15, 0.0, 0.0, 0.0)),
    )
    code, out, _ = _run(capsys, "verify", "--suite", "averaging")
    assert code == 2
    failed = _failed_lines(out)
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {name}: worst ")


def test_pic_equivalence_catches_a_margin_kernel_off_the_top_eigenvalue(capsys, monkeypatch):
    # a margin kernel that reads 0.99 l3 + 0.01 l2 as the top Weyl
    # eigenvalue keeps every sign and leaves min_isotropic alone
    def wrong(r):
        s = 2.0 * np.trace(r, axis1=-2, axis2=-1)
        ev = np.linalg.eigvalsh(cones._BASES_T @ r[..., None, :, :] @ cones._BASES)
        m = s[..., None] / 6.0 - (0.99 * ev[..., -1] + 0.01 * ev[..., -2] - s[..., None] / 12.0)
        return {"scal": s, "ic_plus": m[..., 0], "ic_minus": m[..., 1], "ic": m.min(axis=-1)}

    name = "cone margin equals half of min_isotropic"
    code, out, _ = _run(capsys, "verify", "--suite", "pic-equivalence")
    assert code == 0 and f"PASS {name}: " in out
    monkeypatch.setattr(cones, "_margins", wrong)
    monkeypatch.setattr(flow, "_fast_margins", wrong)
    code, out, _ = _run(capsys, "verify", "--suite", "pic-equivalence")
    assert code == 2
    failed = _failed_lines(out)
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {name}: worst ")


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "identities", lambda samples, seed: [("forced check", False, "detail")]
    )
    code, out, _ = _run(capsys, "verify", "--suite", "identities")
    assert code == 2
    assert "FAIL forced check" in out


def test_identities_catch_a_q_off_by_a_ricci_term(capsys, monkeypatch):
    # 0.1 Ric0 ^ Id vanishes on Einstein operators, so only the random
    # operators of the Q check see it
    q_vf = flow.q_vf

    def wrong(r):
        return q_vf(r) + 0.1 * cv.wedge_sym(cv.decompose(r).ric0, np.eye(4))

    monkeypatch.setattr(flow, "q_vf", wrong)
    code, out, _ = _run(capsys, "verify", "--suite", "identities")
    assert code == 2
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL Q = R^2 + polarized sharp: worst ")


def test_bianchi_roundtrip_checks_an_operator_at_one_sample(capsys, monkeypatch):
    # a planted recompose that is off by one fails even when samples // 2 is 0
    recompose = cv.recompose
    monkeypatch.setattr(cv, "recompose", lambda parts: recompose(parts) + 1.0)
    code, out, _ = _run(capsys, "verify", "--suite", "bianchi", "--samples", "1")
    assert code == 2
    assert "FAIL decompose/recompose roundtrip: worst 1.000e+00" in out


def test_a_flow_error_fails_its_invariance_check(capsys, monkeypatch):
    # the planted field R^2 - R# leaves the Bianchi subspace: each probe
    # raises mid-flow, and its check fails instead of ending the suite
    wrong = flow._Q_TABLE - 2.0 * flow._SHARP_TABLE
    monkeypatch.setattr(flow, "_Q_TABLE", wrong)
    monkeypatch.setattr(flow, "_Q2_TABLE", 2.0 * wrong)
    code, out, _ = _run(capsys, "verify", "--suite", "invariance", "--samples", "40")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 6
    for cone, line in zip(cones.CONE_IDS, lines):
        assert line.startswith(f"FAIL probe {cone} (n=5): error: Bianchi drift ")
        assert line.endswith(" exceeded tolerance mid-flow")
    assert lines[4].startswith("FAIL identity flow matches 1/(1-3t): error ")
    assert lines[5] == "suite invariance: 0/5 checks passed"


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "everything")
    assert code == 1
    assert "invalid choice" in err


def test_successive_main_calls_reuse_one_parser(tmp_path, capsys, op_path):
    assert cli.build_parser() is cli.build_parser()
    flow_args = ("flow", "--input", op_path, "--t-max", "0.01", "--dt", "1e-3",
                 "--out", str(tmp_path / "traj.csv"))
    code, out, _ = _run(capsys, *flow_args, "--margin-floor", "1e9")
    assert code == 0 and "termination=margin_violation" in out
    code, out, _ = _run(capsys, *flow_args)
    assert code == 0 and "termination=completed" in out
    code, _, err = _run(capsys, "models", "--name", "flat")
    assert code == 1 and "invalid choice" in err
    code, out, _ = _run(capsys, "models", "--name", "sphere")
    assert code == 0 and out.startswith("{")


# -- average / witness ---------------------------------------------------------


def test_average_reports_distance_to_projection(capsys, op_path):
    code, out, _ = _run(
        capsys, "average", "--input", op_path, "--factor", "left",
        "--samples", "500", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    # cp2 is already left-invariant, so the average reproduces it exactly
    assert doc["distance_to_projection"] <= 1e-12
    np.testing.assert_allclose(
        cv.operator_from_json(doc["operator"]), cv.model("cp2", 12.0), atol=1e-12
    )


def test_average_rejects_samples_below_one(capsys, op_path):
    for samples in ("0", "-3"):
        code, out, err = _run(capsys, "average", "--input", op_path, "--samples", samples)
        assert code == 1 and out == "", samples
        assert err == f"error: --samples must be positive, got {samples}\n"


def test_average_rejects_a_negative_seed(capsys, op_path):
    code, out, err = _run(capsys, "average", "--input", op_path, "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


def test_average_is_seed_deterministic(capsys, tmp_path):
    path = tmp_path / "r.json"
    cv.write_operator(cv.random_bianchi(np.random.default_rng(5), norm=1.0), path)
    args = ("average", "--input", str(path), "--samples", "200", "--seed", "9")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_witness_subcommand_round_trips(tmp_path, capsys):
    b = np.hstack([l2.PLUS_BASIS, l2.MINUS_BASIS])
    hand = b @ np.diag([-1.0, -1.0, 3.0, 1 / 3, 1 / 3, 1 / 3]) @ b.T
    path = tmp_path / "hand.json"
    cv.write_operator(hand, path)
    code, out, _ = _run(capsys, "witness", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == pytest.approx(1.0, abs=1e-12)
    assert doc["scale"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    w = cv.operator_from_json(doc["witness"])
    assert cones.cone_margin(w, "ic_plus") == pytest.approx(0.0, abs=1e-10)


def test_witness_reports_inadmissible_input(capsys, op_path):
    code, _, err = _run(capsys, "witness", "--input", op_path)
    assert code == 1
    assert "nothing to witness" in err


# -- console entry point -------------------------------------------------------


@pytest.fixture
def child_env(monkeypatch):
    # a child interpreter imports the same halfpic as this one, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))


def test_module_invocation_end_to_end(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "halfpic.cli", "models", "--name", "s3xr", "--scal", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    np.testing.assert_array_equal(
        cv.operator_from_json(json.loads(proc.stdout)), cv.model("s3xr", 1.0)
    )


def test_flow_refuses_a_step_count_of_2_to_the_53_with_one_error_line(tmp_path, child_env):
    # a tiny --dt, or the default dt of a huge operator: exit 1 and a single
    # error line, with no numpy warning on stderr
    tiny, huge = tmp_path / "tiny.json", tmp_path / "huge.json"
    cv.write_operator(cv.model("sphere", 1.0), tiny)
    cv.write_operator(cv.model("sphere", 1e20), huge)
    for extra in ((str(tiny), "--dt", "1e-20"), (str(huge),)):
        proc = subprocess.run(
            [sys.executable, "-m", "halfpic.cli", "flow", "--input", *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: dt = "), proc.stderr
        assert "2^53" in lines[0]


def test_missing_subcommand_exits_one(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "halfpic.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
