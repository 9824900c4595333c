"""Cone margins, membership classification, and the two independent routes to
the isotropic minimum (frame search and the Wilking-set sampling)."""

import numpy as np
import pytest

from halfpic import cones
from halfpic import curvature as cv
from halfpic import flow
from halfpic import lambda2 as l2


def _bianchi(seed, norm=None):
    return cv.random_bianchi(np.random.default_rng(seed), norm=norm)


# -- margins -------------------------------------------------------------------


def test_eigensolver_residuals_meet_the_margin_contract(rng):
    # every margin here leans on eigvalsh; pin the residual it delivers
    for dim in (3, 6):
        for _ in range(20):
            m = rng.standard_normal((dim, dim))
            m = (m + m.T) / 2.0
            vals, vecs = np.linalg.eigh(m)
            resid = np.abs(m @ vecs - vecs * vals).max()
            assert resid <= 1e-13 * (1.0 + np.abs(m).max())


def test_two_positive_margin_is_the_bottom_eigenvalue_sum():
    assert cones.two_positive_margin(np.diag([2.0, 1.0, -3.0])) == pytest.approx(-2.0)
    assert cones.two_positive_margin(np.eye(3)) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="3x3"):
        cones.two_positive_margin(np.eye(4))


def test_pic_margin_equals_block_two_positivity():
    # same quantity computed through decompose() and through the raw block
    for seed in range(20):
        r = _bianchi(seed)
        for sign, block in (("+", cv.plus_block(r)), ("-", cv.minus_block(r))):
            assert cones.pic_margin(r, sign) == pytest.approx(
                cones.two_positive_margin(block), abs=1e-10
            )


def test_pic_margin_rejects_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        cones.pic_margin(np.eye(6), "plus")


@pytest.mark.parametrize(
    "name,scale,want_plus,want_minus",
    [
        ("sphere", 12.0, 2.0, 2.0),
        ("cp2", 12.0, 0.0, 2.0),
        ("s2xs2", 1.0, 0.0, 0.0),
        ("s3xr", 1.0, 1.0, 1.0),
    ],
)
def test_model_margins(name, scale, want_plus, want_minus):
    r = cv.model(name, scale)
    assert cones.pic_margin(r, "+") == pytest.approx(want_plus, abs=1e-12)
    assert cones.pic_margin(r, "-") == pytest.approx(want_minus, abs=1e-12)


def test_cone_margin_ic_is_the_min_of_the_halves():
    for seed in range(10):
        r = _bianchi(seed)
        assert cones.cone_margin(r, "ic") == pytest.approx(
            min(cones.cone_margin(r, "ic_plus"), cones.cone_margin(r, "ic_minus")),
            abs=1e-12,
        )


def test_cone_margin_scal_is_the_scalar_curvature():
    r = _bianchi(3)
    assert cones.cone_margin(r, "scal") == pytest.approx(cv.scalar(r), abs=1e-12)


def test_cone_margin_rejects_unknown_cone():
    with pytest.raises(ValueError, match="unknown cone"):
        cones.cone_margin(np.eye(6), "sectional")


@pytest.mark.parametrize("cone", cones.CONE_IDS)
@pytest.mark.parametrize("target", [-0.5, 0.0, 0.3])
def test_shift_to_margin_is_exact(cone, target):
    r = _bianchi(4, norm=2.0)
    shifted = cones.shift_to_margin(r, cone, target)
    assert cones.cone_margin(shifted, cone) == pytest.approx(target, abs=1e-10)


def _kernel_operators():
    # random, large-norm, and exact-boundary operators (rotated cp2 and shifts)
    rng = np.random.default_rng(11)
    ops = [cv.random_bianchi(rng) for _ in range(20)]
    ops += [cv.random_bianchi(rng, norm=1e6) for _ in range(20)]
    for k in range(20):
        g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
        ops.append(cv.act(g, cv.model(("cp2", "cp2bar")[k % 2], rng.uniform(0.1, 100.0))))
        cone = ("ic_plus", "ic_minus", "ic")[k % 3]
        ops.append(cones.shift_to_margin(cv.random_bianchi(rng, norm=1.0), cone, 0.0))
    return ops


def test_margin_kernel_stacked_equals_per_operator():
    ops = _kernel_operators()
    stacked = cones._margins(np.array(ops))
    for cone in cones.CONE_IDS:
        assert stacked[cone].shape == (len(ops),)
        np.testing.assert_array_equal(
            stacked[cone], [cones._margins(r)[cone] for r in ops]
        )


def test_margin_kernel_matches_the_block_route():
    for r in _kernel_operators():
        tol = 1e-12 * (1.0 + np.linalg.norm(r))
        got = cones._margins(r)
        plus = cones.two_positive_margin(cv.plus_block(r))
        minus = cones.two_positive_margin(cv.minus_block(r))
        want = {"scal": 2.0 * np.trace(r), "ic_plus": plus, "ic_minus": minus}
        want["ic"] = min(plus, minus)
        for cone in cones.CONE_IDS:
            assert abs(got[cone] - want[cone]) <= tol


def test_flow_margins_are_the_cones_kernel():
    assert flow._fast_margins is cones._margins


# -- membership ----------------------------------------------------------------


@pytest.mark.parametrize(
    "r,label",
    [
        (cv.model("sphere", 12.0), "PIC"),
        (cv.model("cp2", 12.0), "NNIC"),
        (cv.model("s2xs2", 1.0), "NNIC"),
        (-np.eye(6), "neither"),
    ],
)
def test_membership_classification(r, label):
    assert cones.membership(r).classification == label


def test_negated_identity_margins():
    rep = cones.membership(-np.eye(6))
    assert rep.margins["scal"] == pytest.approx(-12.0, abs=1e-12)
    for cone in ("ic_plus", "ic_minus", "ic"):
        assert rep.margins[cone] == pytest.approx(-2.0, abs=1e-12)


def test_membership_one_sided_labels():
    # push cp2 just past its plus boundary; the minus margin stays positive
    r = cones.shift_to_margin(cv.model("cp2", 12.0), "ic_plus", -0.5)
    assert cones.membership(r).classification == "PIC-"
    r2 = cones.shift_to_margin(cv.model("cp2bar", 12.0), "ic_minus", -0.5)
    assert cones.membership(r2).classification == "PIC+"


def test_membership_report_json_keys():
    doc = cones.membership(np.eye(6)).to_json()
    assert tuple(doc) == cones.CONE_IDS + ("class",)
    assert doc["class"] == "PIC"
    assert doc["scal"] == pytest.approx(12.0)


def test_membership_rejects_bianchi_violations():
    with pytest.raises(ValueError, match="Bianchi"):
        cones.membership(l2.HODGE_STAR)


# -- inradius ------------------------------------------------------------------


@pytest.mark.parametrize("cone", cones.CONE_IDS)
def test_identity_inradius_is_one(cone):
    assert cones.inradius(np.eye(6), cone) == pytest.approx(1.0, abs=1e-12)


def test_boundary_operator_has_zero_inradius():
    assert cones.inradius(cv.model("cp2", 12.0), "ic_plus") == pytest.approx(0.0, abs=1e-12)


def test_inradius_boundary_consistency():
    # shifting down by the inradius lands exactly on the boundary
    for seed in range(5):
        r = cones.shift_to_margin(_bianchi(seed, norm=1.0), "ic", 0.4)
        for cone in cones.CONE_IDS:
            t = cones.inradius(r, cone)
            assert cones.cone_margin(r - t * np.eye(6), cone) == pytest.approx(0.0, abs=1e-10)


def test_inradius_rejects_outside_operators():
    with pytest.raises(ValueError, match="outside"):
        cones.inradius(-np.eye(6), "scal")


# -- frame route ---------------------------------------------------------------


def test_check_frame_errors():
    with pytest.raises(ValueError, match="orthogonal"):
        cones.check_frame(np.ones((4, 4)))
    with pytest.raises(ValueError, match="orientation reversing"):
        cones.check_frame(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_isotropic_value_frozen_anchors():
    assert cones.isotropic_value(np.eye(6), np.eye(4)) == pytest.approx(4.0, abs=1e-14)
    assert cones.isotropic_value(cv.model("s2xs2", 1.0), np.eye(4)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_isotropic_value_is_frame_equivariant(rng):
    r = _bianchi(6)
    f = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    # moving the frame by g equals pulling the operator back
    lhs = cones.isotropic_value(r, g @ f)
    rhs = cones.isotropic_value(cv.act(g, r), f)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_min_isotropic_anchors():
    # constant 4 over all frames for the identity; boundary zero for Fubini-Study
    got = cones.min_isotropic(np.eye(6), "+", samples=10000, seed=3)
    assert got == pytest.approx(4.0, abs=1e-6)
    got = cones.min_isotropic(cv.model("cp2", 12.0), "+", samples=10000, seed=3)
    assert got == pytest.approx(0.0, abs=1e-4)


def test_min_isotropic_matches_the_block_margin():
    # unit norm, norm 1e6, and exactly on either half-cone boundary
    for seed in range(8):
        base = _bianchi(seed, norm=1.0)
        ops = [base, 1e6 * base]
        ops += [cones.shift_to_margin(base, c, 0.0) for c in ("ic_plus", "ic_minus")]
        for r in ops:
            for sign, block in (("+", cv.plus_block(r)), ("-", cv.minus_block(r))):
                want = 2.0 * cones.two_positive_margin(block)
                got = cones.min_isotropic(r, sign, samples=4096, seed=seed)
                assert got == pytest.approx(want, abs=1e-6 * (1.0 + np.linalg.norm(r)))


def test_polish_gradient_is_one_stacked_objective_call(monkeypatch):
    rows = []
    pair_values = cones._pair_values

    def counting(r, frames, flip):
        rows.append(len(frames))
        return pair_values(r, frames, flip)

    monkeypatch.setattr(cones, "_pair_values", counting)
    for sign in ("+", "-"):
        rows.clear()
        cones.min_isotropic(_bianchi(11, norm=1.0), sign, samples=512, seed=2)
        assert rows[0] == 512  # the sampled frames
        # then per step one 6-row gradient call, followed by 1-row line-search trials
        polish = rows[1:]
        assert polish[0] == 6 and polish.count(6) >= 2
        assert set(polish) == {1, 6}
        assert all(not (a == b == 6) for a, b in zip(polish, polish[1:]))


def test_min_isotropic_polish_never_hurts():
    r = _bianchi(9, norm=1.0)
    raw = cones.min_isotropic(r, "+", samples=512, seed=1, polish=False)
    polished = cones.min_isotropic(r, "+", samples=512, seed=1)
    assert polished <= raw + 1e-15


def test_min_isotropic_is_seed_deterministic():
    r = _bianchi(10, norm=1.0)
    a = cones.min_isotropic(r, "+", samples=256, seed=5)
    b = cones.min_isotropic(r, "+", samples=256, seed=5)
    assert a == b


def test_min_isotropic_rejects_bad_samples():
    with pytest.raises(ValueError, match="samples"):
        cones.min_isotropic(np.eye(6), samples=0)


# -- Wilking route -------------------------------------------------------------


def test_sample_wilking_members_pass_the_predicate(rng):
    for sign in ("+", "-"):
        for _ in range(10):
            om = cones.sample_wilking(rng, sign)
            assert cones.in_wilking_set(om, sign)
            other = "-" if sign == "+" else "+"
            assert not cones.in_wilking_set(om, other)


def test_in_wilking_set_rejects_norm_and_angle_violations():
    om = cones.ComplexBivector(re=l2.PLUS_BASIS[:, 0], im=2.0 * l2.PLUS_BASIS[:, 1])
    assert not cones.in_wilking_set(om, "+")  # unequal norms
    om2 = cones.ComplexBivector(re=l2.PLUS_BASIS[:, 0], im=l2.PLUS_BASIS[:, 0])
    assert not cones.in_wilking_set(om2, "+")  # not orthogonal


def test_wilking_value_rejects_outsiders():
    om = cones.ComplexBivector(re=np.ones(6), im=np.zeros(6))
    with pytest.raises(ValueError, match="Wilking set"):
        cones.wilking_value(np.eye(6), om)


def test_wilking_value_matches_the_block_form(rng):
    r = _bianchi(11)
    block = cv.plus_block(r)
    for _ in range(10):
        om = cones.sample_wilking(rng, "+")
        a = l2.PLUS_BASIS.T @ om.re
        b = l2.PLUS_BASIS.T @ om.im
        want = a @ block @ a + b @ block @ b
        assert cones.wilking_value(r, om) == pytest.approx(want, abs=1e-12)


def test_wilking_min_approaches_the_margin_from_above():
    for seed in range(6):
        r = _bianchi(seed, norm=1.0)
        margin = cones.two_positive_margin(cv.plus_block(r))
        got = cones.wilking_min(r, "+", samples=8192, seed=seed)
        assert got >= margin - 1e-12
        assert got == pytest.approx(margin, abs=5e-3)


def test_wilking_and_frame_routes_agree():
    # the two independent minimization routes bound the same number
    for seed in range(5):
        r = _bianchi(seed, norm=1.0)
        frame_min = cones.min_isotropic(r, "+", samples=4096, seed=seed)
        wilking_min = cones.wilking_min(r, "+", samples=8192, seed=seed)
        assert frame_min / 2.0 == pytest.approx(wilking_min, abs=5e-3)
