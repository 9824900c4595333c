"""The quadratic curvature vector field and its fixed-step integrator."""

import warnings

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


def test_stacked_sharp_forms_are_each_form_alone_bit_for_bit(rng):
    # sharp_by_polarization evaluates its 42 forms as one stack
    for r in (_bianchi(3), 1e100 * _bianchi(4), cv.model("cp2", 12.0)):
        etas = rng.standard_normal((9, 6))
        got = flow._sharp_forms(r, etas)
        for k in range(9):
            assert got[k] == flow.sharp_quadratic_form(r, etas[k])


def test_sharp_quadratic_form_validates_its_bivector():
    with pytest.raises(ValueError, match="eta must be a 6-vector"):
        flow.sharp_quadratic_form(np.eye(6), np.zeros(4))
    with pytest.raises(ValueError, match="eta has non-finite entries"):
        flow.sharp_quadratic_form(np.eye(6), np.full(6, np.nan))


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


def _q(y):
    # the kernel on the Q table, on an (m, 21) coordinate stack
    return flow._quadratic(y, flow._Q_TABLE)


def test_q_is_symmetric_and_overflows_to_non_finite_entries_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = 2.0**600 * np.eye(6)
        for out in (flow.q_vf(big), flow.sharp(big), flow.bilinear_b(big, big)):
            assert out.shape == (6, 6)
            assert not np.isfinite(out).all()
        q = flow.q_vf(_bianchi(0))
    np.testing.assert_array_equal(q, q.T)


def test_quadratic_tables_are_the_polarized_reference_routes():
    # B(E_p, E_q) = (F(E_p + E_q) - F(E_p) - F(E_q)) / 2 for F = R# and for
    # F = Q, on all 231 pairs p <= q of coordinate basis matrices; the
    # reference routes are exact on these small integer operators
    iu, ju = np.triu_indices(6)
    basis = np.zeros((21, 6, 6))
    basis[np.arange(21), iu, ju] = basis[np.arange(21), ju, iu] = 1.0

    def reference(r):
        sharp = flow.sharp_by_polarization(r)
        return {"sharp": sharp, "q": r @ r + sharp}

    tables = {"sharp": flow._SHARP_TABLE.reshape(21, 21, 21),
              "q": flow._Q_TABLE.reshape(21, 21, 21)}
    single = [reference(e) for e in basis]
    for p in range(21):
        for q in range(p, 21):
            both = reference(basis[p] + basis[q]) if q > p else None
            for name, table in tables.items():
                want = single[p][name] if q == p else (
                    both[name] - single[p][name] - single[q][name]) / 2.0
                np.testing.assert_array_equal(table[p, :, q], want[iu, ju])
                np.testing.assert_array_equal(table[q, :, p], want[iu, ju])
    for table in tables.values():
        assert set(np.unique(table).tolist()) <= {-1.0, -0.5, 0.0, 0.5, 1.0}


def test_stacked_q_matches_each_operator_alone():
    # a 2-D matrix product may pick its kernel by row count, so every stack
    # size up to 40 is checked, at several norms
    rng = np.random.default_rng(40)
    for norm in (1e-3, 1.0, 1e6):
        for n in range(1, 41):
            ops = np.stack([cv.random_bianchi(rng, norm=norm) for _ in range(n)])
            y = flow._coords(ops)
            q = _q(y)
            for k in range(n):
                np.testing.assert_array_equal(q[k], _q(y[k : k + 1])[0])
    ops = np.stack([_bianchi(seed, norm=10.0 ** (seed % 7 - 3)) for seed in range(14)])
    q = flow._expand(_q(flow._coords(ops)))
    for k in range(len(ops)):
        np.testing.assert_array_equal(q[k], flow.q_vf(ops[k]))


def test_q_matches_square_plus_polarized_sharp():
    # random operators over many norms, operators on each cone boundary,
    # norms 1e+-150, and off the Bianchi subspace, where only the symmetry
    # of R is used
    g = np.random.default_rng(41).standard_normal((6, 6))
    ops = [_bianchi(seed, norm=10.0 ** (seed - 3)) for seed in range(7)] + [g + g.T]
    ops += [cones.shift_to_margin(_bianchi(seed, norm=1.0), cone, 0.0)
            for seed, cone in enumerate(cones.CONE_IDS, start=20)]
    ops += [_bianchi(seed, norm=norm) for seed in (30, 31) for norm in (1e-150, 1e150)]
    for r in ops:
        want = r @ r + flow.sharp_by_polarization(r)
        err = np.abs(flow._expand(_q(flow._coords(r[None])))[0] - want).max()
        assert err <= 1e-14 * np.linalg.norm(r) ** 2


def test_q_is_exactly_homogeneous_under_powers_of_two():
    y = flow._coords(np.stack([_bianchi(seed, norm=1.0) for seed in range(5)]))
    q = _q(y)
    for k in (-40, 5, 60):
        np.testing.assert_array_equal(_q(np.ldexp(y, k)), np.ldexp(q, 2 * k))


def test_bilinear_b_polarizes_q():
    for seed in range(5):
        r, s = _bianchi(seed), _bianchi(seed + 50, norm=10.0)
        want = 0.5 * (flow.q_vf(r + s) - flow.q_vf(r) - flow.q_vf(s))
        np.testing.assert_array_equal(flow.bilinear_b(r, s), want)
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


def test_a_step_that_does_not_divide_t_max_ends_at_t_max():
    r0 = _bianchi(12, norm=1.0)
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.1, dt=0.03))
    assert traj.termination == "completed"
    assert len(traj) == 5
    np.testing.assert_array_equal(traj.t[:4], np.arange(4) * 0.03)
    assert traj.t[-1] == 0.1
    # the partial last step lands on the fine solution at t_max
    fine = flow.integrate(r0, flow.FlowParams(t_max=0.1, dt=1e-4)).operators[-1]
    assert np.abs(traj.operators[-1] - fine).max() <= 1e-5
    # no partial step where t_max / dt is an integer up to rounding
    for t_max, dt in ((0.01, 1e-3), (0.3, 0.1), (1e-3, 1e-5)):
        traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=t_max, dt=dt))
        assert len(traj) == round(t_max / dt) + 1
        np.testing.assert_array_equal(traj.t, np.arange(len(traj)) * dt)


def test_blowup_termination():
    traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=0.1, dt=1e-3, blowup_norm=3.0))
    assert traj.termination == "blowup"
    assert traj.norm[-1] > 3.0
    assert len(traj) < 101


def _overflowing_seed():
    # the norm outruns a huge blowup_norm: the third RK4 step overflows
    return _bianchi(0, norm=1e5) + 1e5 * np.eye(6)


_OVERFLOW_PARAMS = flow.FlowParams(t_max=1e-3, dt=1e-5, blowup_norm=1e300)


def test_a_non_finite_step_ends_as_blowup():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = flow.integrate(_overflowing_seed(), _OVERFLOW_PARAMS)
    assert traj.termination == "blowup"
    assert 1 < len(traj) < 101
    assert all(np.isfinite(op).all() for op in traj.operators)
    for values in (traj.t, traj.scal, traj.norm, *traj.margins.values()):
        assert len(values) == len(traj)
        assert np.isfinite(values).all()


def test_an_overflowing_trajectory_leaves_its_stack_mates_alone():
    # the default steps differ, and the mate (flowing towards 0) still runs
    # when the other trajectory's step overflows, so its step factors change
    seeds = [_bianchi(1, norm=1.0) - 5e4 * np.eye(6), _overflowing_seed()]
    params = flow.FlowParams(t_max=7e-6, blowup_norm=1e300)
    log = [[] for _ in seeds]

    def sample(idx, r, m, nrm):
        for j, i in enumerate(idx):
            log[i].append((r[j].copy(), {c: m[c][j] for c in cones.CONE_IDS}, nrm[j]))

    ends, _ = flow._rk4(np.stack(seeds), params, sample)
    assert ends == ["completed", "blowup"]
    assert len(log[0]) > len(log[1])
    for i, r0 in enumerate(seeds):
        traj = flow.integrate(r0, params)
        assert len(log[i]) == len(traj)
        for k, (op, m, nrm) in enumerate(log[i]):
            np.testing.assert_array_equal(op, traj.operators[k])
            assert nrm == traj.norm[k]
            assert m == {c: traj.margins[c][k] for c in cones.CONE_IDS}


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
    # a new stack per call, as _quadratic returns: the RK4 step sums into it
    star = flow._coords(l2.HODGE_STAR)
    monkeypatch.setattr(flow, "_quadratic", lambda y, table: np.repeat(star[None], len(y), axis=0))
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
    nan, inf = float("nan"), float("inf")
    for params, needle in (
        (flow.FlowParams(t_max=nan), "t_max"),
        (flow.FlowParams(t_max=inf, dt=1e-3), "t_max"),
        (flow.FlowParams(t_max=0.01, dt=nan), "dt must be finite"),
        (flow.FlowParams(t_max=0.01, dt=inf), "dt must be finite"),
        (flow.FlowParams(t_max=0.01, blowup_norm=nan), "blowup_norm"),
        (flow.FlowParams(t_max=0.01, margin_floor=nan), "margin_floor"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=needle):
                flow.integrate(r, params)
    # an infinite blowup norm or floor is a valid bound
    for params in (flow.FlowParams(t_max=0.01, blowup_norm=inf), flow.FlowParams(t_max=0.01, margin_floor=-inf)):
        assert flow.integrate(r, params).termination == "completed"


def test_default_dt_shrinks_with_curvature():
    assert flow.default_dt(np.eye(6)) == pytest.approx(1e-3 / 12.0)
    assert flow.default_dt(np.zeros((6, 6))) == pytest.approx(1e-3)


def test_default_dt_of_a_stack_is_per_operator():
    ops = [_bianchi(seed, norm=10.0 ** (seed % 5 - 2)) for seed in range(12)]
    ops += [np.eye(6), -np.eye(6), np.zeros((6, 6))]
    steps = flow.default_dt(np.stack(ops))
    assert steps.shape == (len(ops),)
    for k, r in enumerate(ops):
        assert steps[k] == flow.default_dt(r) == 1e-3 / max(1.0, abs(cv.scalar(r)))


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
    path.write_text(flow.trajectory_csv(traj))
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
    assert traj.margins["ic"].min() == rep.trajectory_minima[k]


def _probe_seeds(cone, n, seed, boundary_fraction=0.5, margin_low=0.0, margin_high=0.5):
    # the probe's own seeds: substream (seed, k), same draw order
    n_boundary = int(round(boundary_fraction * n))
    out = []
    for k in range(n):
        rng = np.random.default_rng((seed, k))
        r0 = cv.random_bianchi(rng, norm=1.0)
        lo, hi = (0.0, 1e-6) if k < n_boundary else (margin_low, margin_high)
        out.append(cones.shift_to_margin(r0, cone, rng.uniform(lo, hi)))
    return out


_PROBE_CASES = [(cone, {}) for cone in cones.CONE_IDS] + [
    # with a floor, seeds that start outside stop at step 1 and the rest run
    # to their own step counts; then a small blowup_norm, then normalize
    ("ic_plus", dict(params=flow.FlowParams(t_max=0.05, margin_floor=0.0),
                     boundary_fraction=0.25, margin_low=-0.02, margin_high=0.02)),
    ("ic", dict(params=flow.FlowParams(t_max=0.05, margin_floor=0.0),
                boundary_fraction=0.0, margin_low=-0.05, margin_high=0.05)),
    ("ic_minus", dict(params=flow.FlowParams(t_max=0.2, blowup_norm=1.2))),
    ("ic", dict(params=flow.FlowParams(t_max=0.05, normalize=True))),
]


def _serial_probe(cone, n, seed, kwargs):
    # integrate on the probe's seeds, one at a time
    kwargs = dict(kwargs)
    params = kwargs.pop("params", flow.FlowParams(t_max=0.05))
    minima, minima_norm, terminations, lengths = [], [], {}, []
    for r0 in _probe_seeds(cone, n, seed, **kwargs):
        traj = flow.integrate(r0, params)
        vals = traj.margins[cone]
        minima.append(vals.min())
        minima_norm.append((vals / (1.0 + traj.norm)).min())
        terminations[traj.termination] = terminations.get(traj.termination, 0) + 1
        lengths.append(len(traj))
    return minima, minima_norm, terminations, lengths


@pytest.mark.parametrize("cone,kwargs", _PROBE_CASES)
def test_probe_equals_one_integration_per_seed(cone, kwargs):
    rep = flow.invariance_probe(cone, n=8, seed=4, **kwargs)
    minima, minima_norm, terminations, _ = _serial_probe(cone, 8, 4, kwargs)
    np.testing.assert_array_equal(rep.trajectory_minima, minima)
    assert rep.min_margin == min(minima)
    assert rep.min_margin_normalized == min(minima_norm)
    assert rep.worst_index == int(np.argmin(minima_norm))
    assert list(rep.terminations.items()) == list(terminations.items())


def test_probe_cases_stop_trajectories_at_different_steps():
    ends = set()
    for cone, kwargs in _PROBE_CASES[len(cones.CONE_IDS):]:
        _, _, terminations, lengths = _serial_probe(cone, 8, 4, kwargs)
        assert len(set(lengths)) > 2
        ends |= set(terminations)
    assert ends == {"completed", "margin_violation", "blowup"}


def test_stacked_core_samples_equal_integrate_per_trajectory():
    # seeds in and out of the cone and at several norms: trajectories stop
    # by blowup, by the floor, by both at once, or complete, at many steps
    seeds = _probe_seeds("ic", 10, 5, boundary_fraction=0.2, margin_low=-2.0, margin_high=1.0)
    params = flow.FlowParams(t_max=0.3, blowup_norm=1.6, margin_floor=0.0)
    log = [[] for _ in seeds]

    def sample(idx, r, m, nrm):
        for j, i in enumerate(idx):
            log[i].append((r[j].copy(), {c: m[c][j] for c in cones.CONE_IDS}, nrm[j]))

    ends, dt = flow._rk4(np.stack(seeds), params, sample)
    both = 0
    for i, r0 in enumerate(seeds):
        traj = flow.integrate(r0, params)
        assert ends[i] == traj.termination
        assert dt[i] == traj.t[1]
        assert len(log[i]) == len(traj)
        for k, (op, m, nrm) in enumerate(log[i]):
            np.testing.assert_array_equal(op, traj.operators[k])
            assert nrm == traj.norm[k]
            assert m == {c: traj.margins[c][k] for c in cones.CONE_IDS}
        both += traj.termination == "blowup" and min(log[i][-1][1].values()) < 0.0
    assert set(ends) == {"completed", "margin_violation", "blowup"}
    assert both  # blowup wins when the floor trips on the same step
    assert len({len(entries) for entries in log}) > 2


# -- the block record ----------------------------------------------------------


def _logged_core(seeds, params):
    # the stacked core, logging each sample call's idx and each trajectory's samples
    log, calls = [[] for _ in seeds], []

    def sample(idx, r, m, nrm):
        calls.append(idx.copy())
        for j, i in enumerate(idx):
            log[i].append((r[j].copy(), {c: m[c][j] for c in cones.CONE_IDS}, nrm[j]))

    ends, _ = flow._rk4(np.stack(seeds), params, sample)
    return ends, log, calls


def _assert_log_is_integrate(r0, params, end, log):
    traj = flow.integrate(r0, params)
    assert end == traj.termination
    assert len(log) == len(traj)
    for k, (op, m, nrm) in enumerate(log):
        np.testing.assert_array_equal(op, traj.operators[k])
        assert nrm == traj.norm[k]
        assert m == {c: traj.margins[c][k] for c in cones.CONE_IDS}


def test_a_trajectory_stopped_mid_block_is_not_sampled_after_its_stop():
    # Id/(1 - 3t) passes norm 2.5 at step 7 of a 16-step block; its mate, 0,
    # runs on to t_max
    seeds = [np.eye(6), np.zeros((6, 6))]
    params = flow.FlowParams(t_max=0.05, dt=1e-3, blowup_norm=2.5)
    ends, log, calls = _logged_core(seeds, params)
    assert ends == ["blowup", "completed"]
    norms = [nrm for _, _, nrm in log[0]]
    assert len(norms) == 8 and norms[-1] > 2.5 >= max(norms[:-1])
    assert len(log[1]) == 51
    # the block of the stop goes on past it for the mate
    last = [idx for idx in calls if 0 in idx][-1]
    assert np.count_nonzero(last == 1) > np.count_nonzero(last == 0)
    for i, r0 in enumerate(seeds):
        _assert_log_is_integrate(r0, params, ends[i], log[i])


def test_the_first_stop_in_a_block_ends_the_trajectory():
    # c Id flows as c Id / (1 - 3 c t).  -Id trips an ic_plus floor of -1.99
    # at step 1 and is back above it before its 32-step block ends; Id trips
    # a floor of 2.5 at step 1 and passes a blowup norm of 2.5 at step 7
    floor = dict(t_max=0.05, dt=1e-3, margin_cones=("ic_plus",))
    for r0, params in (
        (-np.eye(6), flow.FlowParams(margin_floor=-1.99, **floor)),
        (np.eye(6), flow.FlowParams(margin_floor=2.5, blowup_norm=2.5, **floor)),
    ):
        traj = flow.integrate(r0, params)
        assert traj.termination == "margin_violation"
        assert len(traj) == 2


@pytest.mark.parametrize("normalize", [False, True])
def test_a_defect_after_a_stop_in_the_same_block_is_not_checked(monkeypatch, normalize):
    # trajectory 0 trips the ic_plus floor at step 1; from step 2 on, a
    # stand-in vector field gives it a star component (Bianchi drift) or,
    # under normalization, drives its scalar curvature negative, while its
    # mate runs on with the true field
    cp2 = cv.model("cp2", 12.0)
    seeds = [cones.shift_to_margin(cp2, "ic_plus", m) for m in (-1.0, 1.0)]
    params = flow.FlowParams(
        t_max=0.05, dt=1e-3, normalize=normalize, margin_cones=("ic_plus",), margin_floor=-0.5
    )
    defect = flow._coords(-1e4 * np.eye(6) if normalize else l2.HODGE_STAR)
    quadratic, sizes = flow._quadratic, []

    def stand_in(y, table):
        sizes.append(len(y))
        q = quadratic(y, table)
        if len(sizes) > 4 and len(y) == 2:
            q[0] += defect
        return q

    monkeypatch.setattr(flow, "_quadratic", stand_in)
    ends, log, _ = _logged_core(seeds, params)
    assert sizes.count(2) > 4  # the defect did enter trajectory 0
    monkeypatch.undo()
    assert ends == ["margin_violation", "completed"]
    assert len(log[0]) == 2
    for i, r0 in enumerate(seeds):
        _assert_log_is_integrate(r0, params, ends[i], log[i])


@pytest.mark.parametrize("n", [1, 3, 8, 33])
def test_block_record_equals_integrate_per_trajectory(n):
    seeds = _probe_seeds("ic", n, 6, boundary_fraction=0.2, margin_low=-2.0, margin_high=1.0)
    params = flow.FlowParams(t_max=0.05, blowup_norm=1.6, margin_floor=0.0)
    ends, log, calls = _logged_core(seeds, params)
    for i, r0 in enumerate(seeds):
        _assert_log_is_integrate(r0, params, ends[i], log[i])
    # a block of m trajectories spans at most max(1, RECORD_ROWS // m) steps,
    # so at n = 33 the first blocks are one step each
    for idx in calls:
        m = len(set(idx.tolist()))
        assert np.bincount(idx).max() <= max(1, flow.RECORD_ROWS // m)
    if n > flow.RECORD_ROWS:
        assert len(calls[1]) == n
    assert any(len(idx) > len(set(idx.tolist())) for idx in calls)


def _plain_rk4(r0, dt, t_max):
    # one operator, step by step, with a partial last step: no blocks
    full = int(np.floor(t_max / dt + 1e-9))
    tail = t_max - full * dt
    states, y = [r0], flow._coords(r0[None])
    for h in [dt] * full + [tail] * (t_max / dt - full > 1e-9):
        y = flow._rk4_step(y, h, 0.5 * h, h / 6.0, np.empty_like(y))
        states.append(flow._expand(y[0]))
    return states


def test_a_block_that_ends_at_a_partial_last_step():
    # no step divides t_max, and the steps differ: each trajectory's partial
    # step cuts the block of its mates
    seeds = _probe_seeds("ic_plus", 5, 7)
    params = flow.FlowParams(t_max=0.0123)
    ends, log, _ = _logged_core(seeds, params)
    assert ends == ["completed"] * 5
    for i, r0 in enumerate(seeds):
        dt = float(flow.default_dt(r0))
        want = _plain_rk4(r0, dt, params.t_max)
        assert len(want) == int(params.t_max / dt) + 2
        assert [op.tolist() for op, _, _ in log[i]] == [op.tolist() for op in want]
        _assert_log_is_integrate(r0, params, ends[i], log[i])
    # a common step, one block up to the partial step: 14 full steps of 7e-3
    r0 = seeds[0]
    traj = flow.integrate(r0, flow.FlowParams(t_max=0.1, dt=7e-3))
    assert traj.t[-1] == 0.1
    want = _plain_rk4(r0, 7e-3, 0.1)
    assert len(want) == 16
    assert [op.tolist() for op in traj.operators] == [op.tolist() for op in want]


def test_no_margin_call_sees_more_than_one_block(monkeypatch):
    sizes = []
    fast = flow._fast_margins

    def spy(r):
        sizes.append(len(r))
        return fast(r)

    monkeypatch.setattr(flow, "_fast_margins", spy)
    for n in (1, 5, 8, 32):
        sizes.clear()
        flow.invariance_probe("ic", n=n, seed=3)
        assert sizes[0] == n  # the t=0 sample
        assert max(sizes) <= flow.RECORD_ROWS
        if n < flow.RECORD_ROWS:
            assert max(sizes) > n  # blocks span several steps


def test_probe_reads_margins_through_the_module_binding(monkeypatch):
    base = flow.invariance_probe("ic", n=3, seed=1)
    fast = flow._fast_margins
    monkeypatch.setattr(
        flow, "_fast_margins", lambda r: {c: m + 1.0 for c, m in fast(r).items()}
    )
    assert flow.invariance_probe("ic", n=3, seed=1).min_margin == base.min_margin + 1.0


def test_probe_parameter_validation():
    with pytest.raises(ValueError, match="unknown cone"):
        flow.invariance_probe("sectional", n=2)
    with pytest.raises(ValueError, match="boundary_fraction"):
        flow.invariance_probe("ic", n=2, boundary_fraction=1.5)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            flow.invariance_probe("ic", n=n)
    nan = float("nan")
    for params, needle in (
        (flow.FlowParams(t_max=nan), "t_max"),
        (flow.FlowParams(t_max=float("inf"), dt=1e-3), "t_max"),
        (flow.FlowParams(t_max=0.05, dt=nan), "dt must be finite"),
        (flow.FlowParams(t_max=0.05, blowup_norm=nan), "blowup_norm"),
        (flow.FlowParams(t_max=0.05, margin_floor=nan), "margin_floor"),
    ):
        with pytest.raises(ValueError, match=needle):
            flow.invariance_probe("ic", n=2, params=params)
