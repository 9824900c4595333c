"""The quadratic curvature vector field and its fixed-step integrator."""

import numpy as np
import pytest

from halfpic import cones
from halfpic import curvature as cv
from halfpic import flow
from halfpic import lambda2 as l2


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


# -- sharp ---------------------------------------------------------------------


def test_sharp_of_the_identity():
    np.testing.assert_allclose(flow.sharp(np.eye(6)), 2.0 * np.eye(6), atol=1e-14)


def test_sharp_is_symmetric():
    s = flow.sharp(_bianchi(0))
    np.testing.assert_allclose(s, s.T, atol=0)


def test_sharp_fast_route_matches_polarization():
    for seed in range(10):
        r = _bianchi(seed)
        np.testing.assert_allclose(
            flow.sharp(r), flow.sharp_by_polarization(r), atol=1e-12
        )


def test_sharp_quadratic_form_is_the_diagonal(rng):
    r = _bianchi(1)
    s = flow.sharp(r)
    for _ in range(10):
        eta = rng.standard_normal(6)
        assert flow.sharp_quadratic_form(r, eta) == pytest.approx(
            eta @ s @ eta, abs=1e-10
        )


def test_sharp_is_equivariant(rng):
    r = _bianchi(2)
    for _ in range(5):
        g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
        np.testing.assert_allclose(
            flow.sharp(cv.act(g, r)), cv.act(g, flow.sharp(r)), atol=1e-12
        )


def test_sharp_scales_quadratically():
    r = _bianchi(3)
    np.testing.assert_allclose(flow.sharp(2.0 * r), 4.0 * flow.sharp(r), atol=1e-12)


# -- the vector field ----------------------------------------------------------


def test_q_identity_anchor():
    np.testing.assert_allclose(flow.q_vf(np.eye(6)), 3.0 * np.eye(6), atol=1e-14)


def test_q_fixed_direction_of_fubini_study():
    c = cv.model("cp2", 12.0)
    assert np.linalg.norm(flow.q_vf(c) - 3.0 * c) <= 1e-9


def test_q_is_square_plus_sharp():
    r = _bianchi(4)
    np.testing.assert_allclose(flow.q_vf(r), r @ r + flow.sharp(r), atol=1e-12)


def test_q_preserves_the_bianchi_identity():
    for seed in range(10):
        q = flow.q_vf(_bianchi(seed))
        assert cv.bianchi_defect(q) <= 1e-12 * (1.0 + np.abs(q).max())


def test_q_rejects_bianchi_violations():
    with pytest.raises(ValueError, match="Bianchi"):
        flow.q_vf(l2.HODGE_STAR)


def test_bilinear_b_polarizes_q():
    r, s = _bianchi(5), _bianchi(6)
    np.testing.assert_allclose(flow.bilinear_b(r, s), flow.bilinear_b(s, r), atol=1e-12)
    np.testing.assert_allclose(flow.bilinear_b(r, r), flow.q_vf(r), atol=1e-12)
    np.testing.assert_allclose(
        flow.bilinear_b(np.eye(6), np.eye(6)), 3.0 * np.eye(6), atol=1e-13
    )
    np.testing.assert_allclose(
        flow.bilinear_b(cv.model("cp2", 12.0), np.eye(6)), 3.0 * np.eye(6), atol=1e-9
    )


# -- integration ---------------------------------------------------------------


def test_identity_flow_matches_the_closed_form():
    # R0 = Id evolves as Id/(1 - 3t)
    traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=0.1, dt=1e-4))
    assert traj.termination == "completed"
    np.testing.assert_allclose(traj.operators[-1], np.eye(6) / 0.7, atol=1e-12)
    assert traj.t[-1] == pytest.approx(0.1, abs=1e-12)
    mid = len(traj) // 2
    np.testing.assert_allclose(
        traj.operators[mid], np.eye(6) / (1.0 - 3.0 * traj.t[mid]), atol=1e-12
    )


def test_step_halving_shows_fourth_order():
    # norm 10 keeps the truncation error far above float roundoff
    r0 = _bianchi(7, norm=10.0)
    exact = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=2e-5)).operators[-1]
    coarse = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=2e-3)).operators[-1]
    fine = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=1e-3)).operators[-1]
    ratio = np.linalg.norm(coarse - exact) / np.linalg.norm(fine - exact)
    assert 12.0 <= ratio <= 20.0


def test_flow_commutes_with_the_orthogonal_action(rng):
    r0 = _bianchi(8, norm=1.0)
    g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    p = flow.FlowParams(t_max=0.02, dt=1e-3)
    a = flow.integrate(cv.act(g, r0), p).operators[-1]
    b = cv.act(g, flow.integrate(r0, p).operators[-1])
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_normalized_flow_holds_the_scalar_curvature():
    r0 = cones.shift_to_margin(_bianchi(9, norm=1.0), "scal", 6.0)
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.05, dt=1e-3, normalize=True))
    np.testing.assert_allclose(traj.scal, 6.0 * np.ones(len(traj)), atol=1e-10)


def test_zero_is_a_fixed_point():
    traj = flow.integrate(np.zeros((6, 6)), flow.FlowParams(t_max=0.05, dt=1e-3))
    assert traj.termination == "completed"
    assert max(np.abs(op).max() for op in traj.operators) == 0.0


def test_normalized_flow_fixes_the_fubini_study_ray():
    r0 = cv.model("cp2", 12.0)
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.5, dt=1e-3, normalize=True))
    drift = max(np.abs(op - r0).max() for op in traj.operators)
    assert drift / 0.5 <= 1e-7


def test_blowup_termination():
    traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=0.1, dt=1e-3, blowup_norm=3.0))
    assert traj.termination == "blowup"
    assert traj.norm[-1] > 3.0
    assert len(traj) < 101


def test_margin_floor_termination():
    # a strictly PIC- operator trips an ic_plus floor immediately
    r0 = cones.shift_to_margin(cv.model("cp2", 12.0), "ic_plus", -1.0)
    traj = flow.integrate(
        r0,
        flow.FlowParams(t_max=0.01, dt=1e-3, margin_cones=("ic_plus",), margin_floor=-0.5),
    )
    assert traj.termination == "margin_violation"


def test_trajectory_operators_are_independent_arrays():
    r0 = _bianchi(21, norm=1.0)
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.01, dt=1e-3))
    ops = [r0] + traj.operators
    for a, b in zip(ops, ops[1:]):
        assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(traj.operators[0], r0)


def test_mid_flow_bianchi_drift_is_detected(monkeypatch):
    # a vector field with a star component leaves the Bianchi subspace
    monkeypatch.setattr(flow, "_q_raw", lambda r: l2.HODGE_STAR)
    with pytest.raises(RuntimeError, match="Bianchi drift .* exceeded tolerance mid-flow"):
        flow.integrate(np.eye(6), flow.FlowParams(t_max=0.01, dt=1e-3))


def test_integrate_parameter_validation():
    r = np.eye(6)
    with pytest.raises(TypeError, match="FlowParams"):
        flow.integrate(r, {"t_max": 0.1})
    with pytest.raises(ValueError, match="t_max"):
        flow.integrate(r, flow.FlowParams(t_max=0.0))
    with pytest.raises(ValueError, match="dt"):
        flow.integrate(r, flow.FlowParams(t_max=0.1, dt=-1.0))
    with pytest.raises(ValueError, match="smaller than t_max"):
        flow.integrate(r, flow.FlowParams(t_max=0.1, dt=0.2))
    with pytest.raises(ValueError, match="unknown cone"):
        flow.integrate(r, flow.FlowParams(margin_cones=("sectional",)))
    with pytest.raises(ValueError, match="positive initial scalar"):
        flow.integrate(-r, flow.FlowParams(normalize=True))


def test_default_dt_shrinks_with_curvature():
    assert flow.default_dt(np.eye(6)) == pytest.approx(1e-3 / 12.0)
    assert flow.default_dt(np.zeros((6, 6))) == pytest.approx(1e-3)


def test_trajectory_margins_match_the_cones_module():
    # flow and cones share one margin kernel, so check against the trace and
    # the two-positivity margins of the raw blocks instead
    traj = flow.integrate(_bianchi(10, norm=1.0), flow.FlowParams(t_max=0.01, dt=1e-3))
    for k, r in enumerate(traj.operators):
        plus = cones.two_positive_margin(cv.plus_block(r))
        minus = cones.two_positive_margin(cv.minus_block(r))
        want = {"scal": 2.0 * np.trace(r), "ic_plus": plus, "ic_minus": minus}
        want["ic"] = min(plus, minus)
        for cone in cones.CONE_IDS:
            assert traj.margins[cone][k] == pytest.approx(want[cone], abs=1e-10)


# -- serialization -------------------------------------------------------------


def test_trajectory_csv_roundtrips_at_full_precision(tmp_path):
    traj = flow.integrate(_bianchi(11, norm=1.0), flow.FlowParams(t_max=0.01, dt=1e-3))
    text = flow.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == flow.TRAJECTORY_HEADER
    assert len(lines) == len(traj) + 1
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], traj.t)
    np.testing.assert_array_equal(parsed[:, 1], traj.scal)
    np.testing.assert_array_equal(parsed[:, 6], traj.norm)
    path = tmp_path / "traj.csv"
    flow.write_trajectory_csv(traj, path)
    assert path.read_text() == text


def test_trajectory_snapshots_layout():
    traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=0.01, dt=5e-3))
    snaps = flow.trajectory_snapshots(traj)
    assert len(snaps) == len(traj)
    assert list(snaps[0]) == ["t", "basis", "matrix"]
    np.testing.assert_array_equal(
        cv.operator_from_json(snaps[-1]), traj.operators[-1]
    )


# -- invariance probes ---------------------------------------------------------


def test_probe_reports_are_reproducible():
    a = flow.invariance_probe("ic_plus", n=6, seed=3)
    b = flow.invariance_probe("ic_plus", n=6, seed=3)
    assert a.to_json() == b.to_json()
    assert a.n == 6 and a.cone == "ic_plus"
    assert a.terminations.get("completed", 0) == 6


def test_probe_keeps_in_cone_starts_in_cone():
    for cone in cones.CONE_IDS:
        rep = flow.invariance_probe(cone, n=8, seed=0)
        assert rep.min_margin_normalized >= -1e-6


def test_probe_detects_out_of_cone_starts():
    # the inverted predicate: seeded strictly outside, the margin log shows it
    rep = flow.invariance_probe(
        "ic_plus", n=6, seed=1, boundary_fraction=0.0, margin_low=-0.4, margin_high=-0.2
    )
    assert rep.min_margin < -0.1


def test_probe_worst_seed_replays():
    rep = flow.invariance_probe("ic", n=6, seed=2)
    rng = np.random.default_rng(rep.worst_seed)
    r0 = cv.random_bianchi(rng, norm=1.0)
    # same substream, same draw order as inside the probe
    k = rep.worst_index
    target = rng.uniform(0.0, 1e-6) if k < 3 else rng.uniform(0.0, 0.5)
    r0 = cones.shift_to_margin(r0, "ic", target)
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.05))
    assert traj.margins["ic"].min() == pytest.approx(
        rep.trajectory_minima[k], abs=1e-12
    )


def test_probe_parameter_validation():
    with pytest.raises(ValueError, match="unknown cone"):
        flow.invariance_probe("sectional", n=2)
    with pytest.raises(ValueError, match="boundary_fraction"):
        flow.invariance_probe("ic", n=2, boundary_fraction=1.5)
