"""Factor averaging, lifting self-dual rotations, and the boundary witness."""

import numpy as np
import pytest

from halfpic import cones
from halfpic import curvature as cv
from halfpic import group_actions as ga
from halfpic import lambda2 as l2


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


def _hand_instance():
    # scal 4, self-dual block diag(-1,-1,3), anti-self-dual block = (1/3) Id
    b = np.hstack([l2.PLUS_BASIS, l2.MINUS_BASIS])
    return b @ np.diag([-1.0, -1.0, 3.0, 1 / 3, 1 / 3, 1 / 3]) @ b.T


# -- projections and averages --------------------------------------------------


def test_exact_projection_keeps_one_weyl_block():
    r = _bianchi(0)
    d = cv.decompose(r)
    left = cv.decompose(ga.exact_projection(r, "left"))
    assert left.scal == pytest.approx(d.scal, abs=1e-12)
    np.testing.assert_allclose(left.wplus, d.wplus, atol=1e-12)
    np.testing.assert_allclose(left.ric0, np.zeros((4, 4)), atol=1e-12)
    np.testing.assert_allclose(left.wminus, np.zeros((3, 3)), atol=1e-12)
    right = cv.decompose(ga.exact_projection(r, "right"))
    np.testing.assert_allclose(right.wminus, d.wminus, atol=1e-12)
    np.testing.assert_allclose(right.wplus, np.zeros((3, 3)), atol=1e-12)


def test_exact_projection_is_idempotent():
    r = _bianchi(1)
    p = ga.exact_projection(r, "left")
    np.testing.assert_allclose(ga.exact_projection(p, "left"), p, atol=1e-13)


def test_projection_rejects_unknown_factor():
    with pytest.raises(ValueError, match="factor"):
        ga.exact_projection(np.eye(6), "top")
    with pytest.raises(ValueError, match="factor"):
        ga.average(np.eye(6), "top")


def test_average_fixes_projection_fixed_points():
    r = cv.assemble(scal=5.0, wplus=np.diag([1.0, -0.25, -0.75]))
    err = np.abs(ga.average(r, "left", n=400, seed=0) - r).max()
    assert err <= 1e-12


def test_average_fixes_the_identity():
    for factor in ("left", "right"):
        err = np.abs(ga.average(np.eye(6), factor, n=50, seed=0) - np.eye(6)).max()
        assert err <= 1e-13


def test_average_kills_the_traceless_ricci_part():
    # a pure Ricci-type operator has no scal or Weyl component to survive
    r = cv.wedge_sym(np.diag([1.0, -2.0, 0.5, 0.5]), np.eye(4))
    n = 10**5
    avg = ga.average(r, "left", n=n, seed=11)
    assert np.linalg.norm(avg) <= 3.0 * np.linalg.norm(r) / np.sqrt(n)


def test_average_is_seed_deterministic():
    r = _bianchi(2, norm=1.0)
    a = ga.average(r, "left", n=300, seed=4)
    b = ga.average(r, "left", n=300, seed=4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("factor", ga.FACTORS)
def test_average_approaches_the_projection(factor):
    r = _bianchi(3, norm=1.0)
    proj = ga.exact_projection(r, factor)
    err = np.linalg.norm(ga.average(r, factor, n=20000, seed=0) - proj)
    # generous 1/sqrt(n) band; the summand norms are bounded by |R|
    assert err <= 18.0 / np.sqrt(20000)


@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("factor, lift", [("left", l2.s3_minus), ("right", l2.s3_plus)])
def test_average_is_the_mean_over_its_factor(factor, lift, n):
    # reference route: one act per Haar quaternion of the same stream
    for seed, r in enumerate([_bianchi(5, norm=1.0), _bianchi(6, norm=1e6), cv.model("cp2bar")]):
        qs = l2.haar_quaternions(np.random.default_rng(seed), n)
        want = np.mean([cv.act(lift(q), r) for q in qs], axis=0)
        got = ga.average(r, factor, n=n, seed=seed)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * (1.0 + np.linalg.norm(r)))


def test_average_error_decays_with_n():
    errs_small, errs_big = [], []
    for seed in range(6):
        r = _bianchi(seed, norm=1.0)
        proj = ga.exact_projection(r, "left")
        errs_small.append(np.linalg.norm(ga.average(r, "left", n=500, seed=seed) - proj))
        errs_big.append(np.linalg.norm(ga.average(r, "left", n=8000, seed=seed) - proj))
    gmean_ratio = np.exp(np.mean(np.log(np.array(errs_small) / np.array(errs_big))))
    assert gmean_ratio > 1.5  # 16x the samples should win on average


def test_average_output_is_a_valid_operator():
    avg = ga.average(_bianchi(4), "right", n=500, seed=1)
    cv.check_operator(avg)
    assert cv.bianchi_defect(avg) <= 1e-10


def test_average_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be positive"):
        ga.average(np.eye(6), n=0)


# -- lifting -------------------------------------------------------------------


def test_lift_reproduces_the_selfdual_rotation(rng):
    for _ in range(20):
        q = l2.haar_quaternion(rng)
        rho = l2.rot3_of_quat(q)
        g = ga.lift_selfdual_rotation(rho)
        induced = l2.induced_map(g)
        np.testing.assert_allclose(
            l2.PLUS_BASIS.T @ induced @ l2.PLUS_BASIS, rho, atol=1e-12
        )
        np.testing.assert_allclose(
            l2.MINUS_BASIS.T @ induced @ l2.MINUS_BASIS, np.eye(3), atol=1e-12
        )


def test_lift_of_a_quarter_turn():
    # the rotation the boundary witness needs: v1 -> v2, v2 -> -v1, v3 fixed
    rho = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    g = ga.lift_selfdual_rotation(rho)
    blocks = l2.PLUS_BASIS.T @ l2.induced_map(g) @ l2.PLUS_BASIS
    np.testing.assert_allclose(blocks, rho, atol=1e-12)


def test_lift_of_the_identity():
    np.testing.assert_allclose(ga.lift_selfdual_rotation(np.eye(3)), np.eye(4), atol=0)


def test_lift_input_validation():
    with pytest.raises(ValueError, match="3x3"):
        ga.lift_selfdual_rotation(np.eye(4))
    with pytest.raises(ValueError, match="not orthogonal"):
        ga.lift_selfdual_rotation(np.eye(3) * 1.5)
    with pytest.raises(ValueError, match="orientation reversing"):
        ga.lift_selfdual_rotation(np.diag([1.0, 1.0, -1.0]))


def test_lift_handles_half_turns():
    rho = np.diag([-1.0, -1.0, 1.0])
    g = ga.lift_selfdual_rotation(rho)
    np.testing.assert_allclose(
        l2.PLUS_BASIS.T @ l2.induced_map(g) @ l2.PLUS_BASIS, rho, atol=1e-12
    )


# -- witness -------------------------------------------------------------------


def test_witness_hand_instance_is_exact():
    res = ga.maximality_witness(_hand_instance())
    assert res.kappa == pytest.approx(1.0, abs=1e-12)
    assert res.scale == pytest.approx(4.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(res.g, np.eye(4), atol=0)  # tied lowest pair
    assert cv.scalar(res.witness) == pytest.approx(16.0, abs=1e-12)
    plus = np.sort(np.linalg.eigvalsh(cv.plus_block(res.witness)))
    np.testing.assert_allclose(plus, [0.0, 0.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(
        cv.minus_block(res.witness), (4.0 / 3.0) * np.eye(3), atol=1e-12
    )


def test_witness_pattern_on_random_admissible_operators():
    made = 0
    seed = 0
    while made < 15:
        r = _bianchi(seed, norm=1.0)
        seed += 1
        d = cv.decompose(r)
        if d.scal <= 0.1:
            continue
        mu = np.linalg.eigvalsh(cv.plus_block(ga.exact_projection(r, "left")))
        if mu[0] + mu[1] >= -0.01:
            continue
        made += 1
        res = ga.maximality_witness(r)
        s = cv.scalar(res.witness)
        assert s > 0.0
        plus = np.sort(np.linalg.eigvalsh(cv.plus_block(res.witness)))
        np.testing.assert_allclose(plus, [0.0, 0.0, s / 4.0], atol=1e-10 * (1 + s))
        np.testing.assert_allclose(
            cv.minus_block(res.witness), (s / 12.0) * np.eye(3), atol=1e-10 * (1 + s)
        )
        assert res.scale == pytest.approx(s / 12.0, abs=1e-12)
        # the witness sits exactly on the plus-cone boundary
        assert cones.pic_margin(res.witness, "+") == pytest.approx(0.0, abs=1e-10)
        l2.check_rotation(res.g)


def test_witness_rejects_nonpositive_scalar():
    with pytest.raises(ValueError, match="positive scalar curvature"):
        ga.maximality_witness(-np.eye(6))


def test_witness_rejects_already_two_nonnegative():
    with pytest.raises(ValueError, match="nothing to witness"):
        ga.maximality_witness(np.eye(6))


def test_witness_rejects_the_exact_boundary_like_membership(rng):
    # rotated and rescaled cp2 sits exactly on the ic_plus boundary; rounding
    # of either sign must not decide between "NNIC" and a witness
    for _ in range(200):
        g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
        r = cv.act(g, cv.model("cp2", rng.uniform(0.1, 100.0)))
        assert cones.membership(r).classification == "NNIC"
        with pytest.raises(ValueError, match="nothing to witness"):
            ga.maximality_witness(r)


def test_witness_json_layout():
    doc = ga.maximality_witness(_hand_instance()).to_json()
    assert set(doc) == {"witness", "kappa", "scale", "g"}
    assert doc["witness"]["basis"] == cv.BASIS_STRING
    assert len(doc["g"]) == 4
    np.testing.assert_allclose(
        cv.operator_from_json(doc["witness"]),
        ga.maximality_witness(_hand_instance()).witness,
        atol=0,
    )
