"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line to the terminal
(bypassing capture) before asserting, so a full run always shows the scorecard.
"""

import numpy as np
import pytest

from halfpic import cones
from halfpic import curvature as cv
from halfpic import flow
from halfpic import group_actions as ga
from halfpic import lambda2 as l2


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _announce


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


def test_criterion_01_identity_anchors(announce):
    i6 = np.eye(6)
    errs = [
        np.abs(flow.q_vf(i6) - 3.0 * i6).max(),
        np.abs(flow.bilinear_b(i6, i6) - 3.0 * i6).max(),
        np.abs(flow.sharp(i6) - 2.0 * i6).max(),
    ]
    worst = max(errs)
    announce(1, worst <= 1e-12, f"identity anchors Q=3Id, B=3Id, sharp=2Id; worst {worst:.3e}")


def test_criterion_02_fubini_study_decomposition(announce):
    d = cv.decompose(cv.model("cp2", 12.0))
    eig_err = np.abs(np.sort(np.linalg.eigvalsh(d.wplus)) - np.array([-1.0, -1.0, 2.0])).max()
    rest = max(np.abs(d.wminus).max(), np.abs(d.ric0).max(), abs(d.scal - 12.0))
    ok = eig_err <= 1e-10 and rest <= 1e-10
    announce(2, ok, f"cp2 blocks: W+ spectrum err {eig_err:.3e}, other parts {rest:.3e}")


def test_criterion_03_fubini_study_fixed_direction(announce):
    c = cv.model("cp2", 12.0)
    err = float(np.linalg.norm(flow.q_vf(c) - 3.0 * c))
    announce(3, err <= 1e-9, f"Q(cp2) = 3 cp2; error {err:.3e}")


def test_criterion_04_isotropic_minimum_equivalence(announce):
    n = 1000
    band = 1e-9
    sign_ok = True
    worst = 0.0
    for k in range(n):
        r = _bianchi(k, norm=1.0)
        margin = cones.two_positive_margin(cv.plus_block(r))
        got = cones.min_isotropic(r, "+", samples=4096, seed=k)
        worst = max(worst, abs(got - 2.0 * margin))
        if abs(margin) > band and np.sign(got) != np.sign(margin):
            sign_ok = False
    ok = sign_ok and worst <= 1e-4
    announce(
        4, ok,
        f"frame minimum vs eigenvalue margin on {n} operators: worst {worst:.3e}, signs agree {sign_ok}",
    )


def test_criterion_05_bianchi_defect_criterion(announce):
    rng = np.random.default_rng(0)
    worst_formula = 0.0
    worst_zero = 0.0
    nonzero_ok = True
    for k in range(1000):
        g = rng.standard_normal((6, 6))
        s = (g + g.T) / 2.0
        scale = 1.0 + np.abs(s).max()
        star_trace = float(np.trace(s @ l2.HODGE_STAR))
        worst_formula = max(
            worst_formula, abs(cv.bianchi_defect(s) - abs(star_trace) / 2.0) / scale
        )
        # kill the star component: the defect must vanish with it
        s0 = s - (star_trace / 6.0) * l2.HODGE_STAR
        worst_zero = max(worst_zero, cv.bianchi_defect(s0) / scale)
        if abs(star_trace) > 1e-6 and cv.bianchi_defect(s) <= 1e-12:
            nonzero_ok = False
    ok = worst_formula <= 1e-12 and worst_zero <= 1e-12 and nonzero_ok
    announce(
        5, ok,
        "defect vanishes iff the star trace does (1000 matrices): "
        f"formula err {worst_formula:.3e}, zero side {worst_zero:.3e}",
    )


def test_criterion_06_flow_integrity(announce):
    worst_probe = np.inf
    for cone in cones.CONE_IDS:
        rep = flow.invariance_probe(cone, n=100, seed=0)
        worst_probe = min(worst_probe, rep.min_margin_normalized)
    probes_ok = worst_probe >= -1e-6

    traj = flow.integrate(np.eye(6), flow.FlowParams(t_max=0.1, dt=1e-4))
    closed_err = np.abs(traj.operators[-1] - np.eye(6) / 0.7).max()
    closed_ok = closed_err <= 1e-8

    r0 = _bianchi(7, norm=10.0)
    exact = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=2e-5)).operators[-1]
    coarse = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=2e-3)).operators[-1]
    fine = flow.integrate(r0, flow.FlowParams(t_max=0.02, dt=1e-3)).operators[-1]
    ratio = float(np.linalg.norm(coarse - exact) / np.linalg.norm(fine - exact))
    order_ok = 12.0 <= ratio <= 20.0

    ok = probes_ok and closed_ok and order_ok
    announce(
        6, ok,
        f"flow: probe min margin {worst_probe:.3e}, closed form err {closed_err:.3e}, "
        f"halving ratio {ratio:.2f}",
    )


def test_criterion_07_factor_averaging(announce):
    worst = 0.0
    ratios = []
    for k in range(20):
        r = _bianchi(k, norm=1.0)
        proj = ga.exact_projection(r, "left")
        err_4n = float(np.linalg.norm(ga.average(r, "left", n=100000, seed=0) - proj))
        err_n = float(np.linalg.norm(ga.average(r, "left", n=25000, seed=0) - proj))
        worst = max(worst, err_4n)
        ratios.append(err_n / err_4n)
    gmean = float(np.exp(np.mean(np.log(ratios))))
    ok = worst <= 1e-2 and 1.6 <= gmean <= 2.6
    announce(
        7, ok,
        f"left averages reach scal+W+ (20 operators): worst err {worst:.3e}, "
        f"quadrupling ratio gmean {gmean:.2f}",
    )


def test_criterion_08_boundary_witness(announce):
    b = np.hstack([l2.PLUS_BASIS, l2.MINUS_BASIS])
    hand = b @ np.diag([-1.0, -1.0, 3.0, 1 / 3, 1 / 3, 1 / 3]) @ b.T
    res = ga.maximality_witness(hand)
    hand_err = max(
        abs(cv.scalar(res.witness) - 16.0),
        np.abs(np.sort(np.linalg.eigvalsh(cv.plus_block(res.witness))) - np.array([0.0, 0.0, 4.0])).max(),
        np.abs(cv.minus_block(res.witness) - (4.0 / 3.0) * np.eye(3)).max(),
        abs(res.kappa - 1.0),
        abs(res.scale - 4.0 / 3.0),
    )
    hand_ok = hand_err <= 1e-8

    made = 0
    seed = 0
    worst = 0.0
    while made < 100:
        r = _bianchi(seed, norm=1.0)
        seed += 1
        d = cv.decompose(r)
        if d.scal <= 0.0:
            continue
        mu = np.linalg.eigvalsh(cv.plus_block(ga.exact_projection(r, "left")))
        if mu[0] + mu[1] >= 0.0:
            continue
        made += 1
        w = ga.maximality_witness(r)
        s = cv.scalar(w.witness)
        scale = 1.0 + abs(s)
        pattern = max(
            np.abs(np.sort(np.linalg.eigvalsh(cv.plus_block(w.witness))) - np.array([0.0, 0.0, s / 4.0])).max(),
            np.abs(cv.minus_block(w.witness) - (s / 12.0) * np.eye(3)).max(),
        )
        worst = max(worst, pattern / scale)
    ok = hand_ok and worst <= 1e-7
    announce(
        8, ok,
        f"witness lands on the boundary pattern: hand err {hand_err:.3e}, "
        f"100 random worst {worst:.3e}",
    )


def test_criterion_09_orientation_duality(announce):
    refl = np.diag([1.0, 1.0, 1.0, -1.0])
    worst = 0.0
    for k in range(200):
        r = _bianchi(k)
        worst = max(
            worst,
            abs(cones.cone_margin(cv.act(refl, r), "ic_plus") - cones.cone_margin(r, "ic_minus")),
        )
    announce(9, worst <= 1e-10, f"orientation flip swaps half cones (200 operators): worst {worst:.3e}")


def test_criterion_10_model_margins(announce):
    table = [
        ("cp2", 12.0, 0.0, 2.0),
        ("s2xs2", 1.0, 0.0, 0.0),
        ("s3xr", 1.0, 1.0, 1.0),
        ("sphere", 12.0, 2.0, 2.0),
    ]
    worst = 0.0
    for name, scale, want_p, want_m in table:
        r = cv.model(name, scale)
        worst = max(
            worst,
            abs(cones.cone_margin(r, "ic_plus") - want_p),
            abs(cones.cone_margin(r, "ic_minus") - want_m),
        )
    announce(10, worst <= 1e-10, f"model space margin table: worst {worst:.3e}")
