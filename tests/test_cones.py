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


def test_membership_rejects_a_negative_or_non_finite_tol():
    # a tol of -1 would read PIC and a NaN one neither, for a PIC- operator
    r = cones.shift_to_margin(cv.model("cp2", 12.0), "ic", -0.1)
    assert cones.membership(r).classification == "PIC-"
    assert cones.membership(r, tol=0.0).classification == "PIC-"
    for tol in (-1.0, -1e-300, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            cones.membership(r, tol=tol)


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


def _reference_project_rotation(m):
    # Reference: nearest rotation to one 4x4 matrix, one SVD at a time.
    u, _, vt = np.linalg.svd(m)
    g = u @ vt
    if np.linalg.det(g) < 0.0:
        u[:, -1] = -u[:, -1]
        g = u @ vt
    return g


def _random_frame(rng):
    return l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))


def _exp_selfdual(x):
    # exp of a combination X of one factor's directions to_so4(w_k), w_k
    # orthonormal: X^2 = -(|c|^2 / 2) I, so exp(X) = cos(th) I + sin(th)/th X
    # with th = |c| / sqrt(2) = sqrt(-tr(X^2) / 4).
    th = np.sqrt(-np.trace(x @ x) / 4.0)
    return np.eye(4) if th == 0.0 else np.cos(th) * np.eye(4) + (np.sin(th) / th) * x


def _polish_directions(sign):
    # X_1 and X_2, built here from the eigenspace basis, not from cones.
    return [l2.to_so4(w) for w in l2.selfdual_basis(sign)[1:]]


def _objective_along(r, g, flip, dirs, t):
    x = sum(c * d for c, d in zip(t, dirs))
    return float(cones._pair_values(r, (g @ _exp_selfdual(x))[None], flip)[0])


def test_exp_of_one_factor_is_closed_form(rng):
    for sign in ("+", "-"):
        x = sum(c * d for c, d in zip(rng.standard_normal(3), map(l2.to_so4, l2.selfdual_basis(sign))))
        th2 = -np.trace(x @ x) / 4.0
        np.testing.assert_allclose(x @ x, -th2 * np.eye(4), rtol=0, atol=1e-15 * (1.0 + th2))
        want = sum(np.linalg.matrix_power(x, k) / np.prod(np.arange(1, k + 1)) for k in range(30))
        np.testing.assert_allclose(_exp_selfdual(x), want, rtol=0, atol=1e-14)


def test_frame_derivatives_match_central_differences(rng):
    # analytic gradient and 2x2 Hessian against central differences of the
    # objective along g exp(t_1 X_1 + t_2 X_2)
    h = 1e-4
    e = np.eye(2)
    for k in range(6):
        r = _bianchi(200 + k, norm=(1.0, 1e3)[k % 2])
        g = _random_frame(rng)
        for sign, flip in (("+", 1.0), ("-", -1.0)):
            dirs = _polish_directions(sign)
            grad, hess = cones._frame_derivatives(r, g, flip)
            f = lambda t: _objective_along(r, g, flip, dirs, t)
            fd_grad = [(f(h * e[i]) - f(-h * e[i])) / (2.0 * h) for i in range(2)]
            fd_hess = [
                [(f(h * (e[i] + e[j])) - f(h * (e[i] - e[j])) - f(h * (e[j] - e[i]))
                  + f(-h * (e[i] + e[j]))) / (4.0 * h * h) for j in range(2)]
                for i in range(2)
            ]
            tol = 1e-6 * (1.0 + np.linalg.norm(r))
            np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=tol)
            np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=tol)


def test_the_first_eigenspace_direction_leaves_the_objective_unchanged(rng):
    # X_0 turns u and v inside their own plane, so the polish can drop it
    eye = np.eye(4)
    for k in range(20):
        r = _bianchi(300 + k, norm=(1.0, 1e6, 1e-3)[k % 3])
        g = _random_frame(rng)
        for sign, flip in (("+", 1.0), ("-", -1.0)):
            x0 = l2.to_so4(l2.selfdual_basis(sign)[0])
            d0 = l2._wedge_maps(x0, eye) + l2._wedge_maps(eye, x0)
            m = l2.induced_map(g)
            s = m.T @ r @ m
            pair = cones._pair_bivectors(flip)
            grad0 = 2.0 * sum(c @ s @ d0 @ c for c in pair)
            assert abs(grad0) <= 1e-14 * (1.0 + np.linalg.norm(r))
            f = lambda t: _objective_along(r, g, flip, [x0], [t])
            assert abs(f(0.3) - f(0.0)) <= 1e-14 * (1.0 + np.linalg.norm(r))


def test_quartic_sampler_equals_the_pair_values(rng):
    # the "+" value depends on q1 alone and the "-" value on q2 alone
    q1, q2, other = (l2.haar_quaternions(rng, 64) for _ in range(3))
    for k, norm in enumerate([1.0, 1e6, 1e-3, 1.0]):
        r = _bianchi(400 + k, norm=norm)
        tol = 1e-14 * (1.0 + np.linalg.norm(r))
        for sign, flip in (("+", 1.0), ("-", -1.0)):
            got = cones._sample_values(cones._quartic_form(r, sign), q1 if sign == "+" else q2)
            frames = l2._quat_to_rot_batch(q1, q2)
            np.testing.assert_allclose(got, cones._pair_values(r, frames, flip), rtol=0, atol=tol)
            moved = l2._quat_to_rot_batch(q1, other) if sign == "+" else l2._quat_to_rot_batch(other, q2)
            np.testing.assert_allclose(got, cones._pair_values(r, moved, flip), rtol=0, atol=tol)


def _reference_sample_values(r, sign, samples, seed):
    # Reference: every sampled frame built and evaluated by _pair_values.
    flip = 1.0 if sign == "+" else -1.0
    rng = np.random.default_rng(seed)
    frames = l2._quat_to_rot_batch(
        l2.haar_quaternions(rng, samples), l2.haar_quaternions(rng, samples)
    )
    return cones._pair_values(r, frames, flip)


def test_unpolished_value_is_the_best_sampled_frame():
    # The value is bit-equal to one sampled frame's _pair_values, the best
    # one wherever the best is clear of rounding (the rotated Kaehler models
    # are constant on one side, so any sample is best there).
    clear = 0
    for k, r in enumerate(_kernel_operators()):
        for sign in ("+", "-"):
            got = cones.min_isotropic(r, sign, samples=512, seed=k, polish=False)
            vals = np.sort(_reference_sample_values(r, sign, 512, k))
            assert got in vals
            assert got - vals[0] <= 1e-14 * (1.0 + np.linalg.norm(r))
            if vals[1] - vals[0] > 1e-12 * (1.0 + np.linalg.norm(r)):
                assert got == vals[0]
                clear += 1
    assert clear >= 100


def _reference_best_sample(r, sign, samples, seed):
    # Reference: one haar_quaternions draw per factor, every row of both
    # normalized, scored in one call.
    rng = np.random.default_rng(seed)
    q1 = l2.haar_quaternions(rng, samples)
    q2 = l2.haar_quaternions(rng, samples)
    k = cones._quartic_form(r, sign)
    best = int(np.argmin(cones._sample_values(k, q1 if sign == "+" else q2)))
    g = l2._quat_to_rot_batch(q1[best : best + 1], q2[best : best + 1])
    return g[0], float(cones._pair_values(r, g, 1.0 if sign == "+" else -1.0)[0])


@pytest.mark.parametrize("samples", [1, 16, 1000, 1023, 1024, 1025, 4096, 10_000])
def test_blocked_best_sample_equals_one_full_draw(samples):
    ops = [_bianchi(600 + k, norm=norm) for k, norm in enumerate([1.0, 1e6, 1e-6])]
    ops.append(cones.shift_to_margin(_bianchi(603, norm=1.0), "ic_minus", 0.0))
    for k, r in enumerate(ops):
        for sign in ("+", "-"):
            g, f = cones._best_sample(r, sign, samples, k)
            want_g, want_f = _reference_best_sample(r, sign, samples, k)
            assert np.array_equal(g, want_g)
            assert f == want_f


def test_stacked_projection_equals_the_per_matrix_reference(rng):
    m = rng.standard_normal((6, 4, 4))
    m[2] = np.diag([1.0, 1.0, 1.0, -1.0]) @ l2.quat_to_rot(
        l2.haar_quaternion(rng), l2.haar_quaternion(rng)
    )
    dets = np.linalg.det(m)
    assert (dets < 0.0).any() and (dets > 0.0).any()
    got = cones._project_rotation(m)
    want = np.stack([_reference_project_rotation(x) for x in m])
    assert np.array_equal(got, want)
    assert np.array_equal(cones._project_rotation(m[2]), want[2])
    np.testing.assert_allclose(np.linalg.det(got), 1.0, atol=1e-14)


# A unit-norm operator shifted to within 1e-6 of the minus boundary whose minus
# block has a top gap of 2.3e-3 (eigenvalues -0.39888, 0.398884, 0.401181): the
# descent crawls, and a 200-step cap left the minimum at +9.29e-7.
_SLOW_MINUS = np.array(
    [
        [0.4788232484927131, -0.11326948831058042, 0.15743832767223973,
         0.004380773216646226, 0.07406078553358819, -0.07744369896501473],
        [-0.11326948831058042, -0.07939525768175812, 0.3189726510547167,
         -0.24073444153155638, -0.07981828935279905, -0.11253469672322201],
        [0.15743832767223973, 0.3189726510547167, 0.3767857526002293,
         -0.002374590387784304, 0.1720950003064658, -0.11526140987176257],
        [0.004380773216646226, -0.24073444153155638, -0.002374590387784304,
         -0.018117643557367308, 0.02116200842742446, -0.22927244259804913],
        [0.07406078553358819, -0.07981828935279905, 0.1720950003064658,
         0.02116200842742446, -0.11947940448910024, 0.1326862409034683],
        [-0.07744369896501473, -0.11253469672322201, -0.11526140987176257,
         -0.22927244259804913, 0.1326862409034683, 0.1637452750545453],
    ]
)


def test_min_isotropic_converges_at_a_small_top_gap():
    want = 2.0 * cones.two_positive_margin(cv.minus_block(_SLOW_MINUS))
    assert want < 0.0
    got = cones.min_isotropic(_SLOW_MINUS, "-", samples=4096, seed=395)
    assert got < 0.0
    assert abs(got - want) <= 1e-12


def _block_operator(rng, sign, spectrum):
    # Random operator whose sign block has the given spectrum in a random
    # eigenbasis; the other block gets the same trace (tr A = tr C is the
    # Bianchi identity) and a random traceless Ricci part is added.
    scal = 4.0 * sum(spectrum)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    w = q @ np.diag(np.asarray(spectrum) - scal / 12.0) @ q.T
    other = rng.standard_normal((3, 3))
    other = (other + other.T) / 2.0
    other -= (np.trace(other) / 3.0) * np.eye(3)
    ric0 = rng.standard_normal((4, 4))
    ric0 = (ric0 + ric0.T) / 2.0
    ric0 -= (np.trace(ric0) / 4.0) * np.eye(4)
    parts = {"wplus": w, "wminus": other} if sign == "+" else {"wplus": other, "wminus": w}
    return cv.assemble(scal=scal, ric0=0.1 * ric0, **parts)


def _tie_operators():
    # Near-tied and exactly tied top (and bottom) eigenvalues of either block,
    # the Kaehler and product models and the identity.
    rng = np.random.default_rng(17)
    return [
        _block_operator(rng, "+", (0.1, 0.7, 0.7 + 1e-7)),
        _block_operator(rng, "-", (0.2, 0.5, 0.5 + 1e-9)),
        _block_operator(rng, "+", (0.1, 0.6, 0.6)),
        _block_operator(rng, "-", (0.3, 0.3, 0.9)),
        cv.model("cp2", 12.0),
        cv.model("s2xs2", 1.0),
        np.eye(6),
    ]


def test_min_isotropic_is_exact_at_tied_top_eigenvalues():
    # relative to |R| alone: the polish stop scales with the operator, so the
    # 1e-6 copies end as close to their margins as the unit ones
    for base in _tie_operators():
        for scale in (1.0, 1e6, 1e-6):
            r = scale * base
            for sign, block in (("+", cv.plus_block(r)), ("-", cv.minus_block(r))):
                want = 2.0 * cones.two_positive_margin(block)
                for samples in (1, 16, 256, 4096):
                    got = cones.min_isotropic(r, sign, samples=samples, seed=samples)
                    assert abs(got - want) <= 1e-12 * np.linalg.norm(r)


def test_min_isotropic_is_exact_beyond_the_squared_norm_range():
    # |R|^2 underflows at 1e-160 and overflows at 1e160, so the polish's
    # scale and gradient stop must not come from a plain norm there
    base = cv.random_bianchi(np.random.default_rng(17))
    for scale in (1e-160, 1e160):
        r = scale * base
        for sign, block in (("+", cv.plus_block(r)), ("-", cv.minus_block(r))):
            want = 2.0 * cones.two_positive_margin(block)
            got = cones.min_isotropic(r, sign, samples=4096, seed=0)
            assert abs(got - want) <= 1e-14 * abs(want)


def test_the_zero_operator_stops_the_polish_at_once():
    zero = np.zeros((6, 6))
    for sign, flip in (("+", 1.0), ("-", -1.0)):
        g, f0 = cones._best_sample(zero, sign, 16, 0)
        assert f0 == 0.0
        assert cones._polish_frame(zero, g, flip, f0) == (0.0, 0, "gradient")
        assert cones.min_isotropic(zero, sign, samples=16) == 0.0


def _iso_frames_pool(n):
    # unit-norm operators, signs alternating, the last two of every four
    # shifted to within 1e-6 of the matching half-cone boundary
    rng = np.random.default_rng(901)
    pool = []
    for k in range(n):
        sign = "+-"[k % 2]
        r = cv.random_bianchi(rng, norm=1.0)
        if k % 4 >= 2:
            cone = "ic_plus" if sign == "+" else "ic_minus"
            r = cones.shift_to_margin(r, cone, rng.uniform(-1e-6, 1e-6))
        pool.append((r, sign))
    return pool


def test_polish_reports_its_stop_and_never_reaches_the_cap():
    stress = [(r, sign) for r in _tie_operators() + _kernel_operators() for sign in "+-"]
    stress.append((_SLOW_MINUS, "-"))
    for k, (r, sign) in enumerate(stress + _iso_frames_pool(64)):
        flip = 1.0 if sign == "+" else -1.0
        g, f0 = cones._best_sample(r, sign, 4096, k)
        fval, steps, stop = cones._polish_frame(r, g, flip, f0)
        assert stop in ("gradient", "no_descent")
        assert steps <= 30
        assert fval <= f0
        assert fval == cones.min_isotropic(r, sign, samples=4096, seed=k)


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
