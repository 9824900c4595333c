"""Cone margins, membership classification, and the frame-search route to
the isotropic minimum, checked against the eigenvalue margin."""

import math
import warnings

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
        for cone, block in (("ic_plus", cv.plus_block(r)), ("ic_minus", cv.minus_block(r))):
            assert cones.cone_margin(r, cone) == pytest.approx(
                cones.two_positive_margin(block), abs=1e-10
            )


def test_pic_margin_rejects_bad_sign():
    # the half-PIC minimum takes its half cone as "+" or "-"
    with pytest.raises(ValueError, match="sign"):
        cones.min_isotropic(np.eye(6), "plus")


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
    assert cones.cone_margin(r, "ic_plus") == pytest.approx(want_plus, abs=1e-12)
    assert cones.cone_margin(r, "ic_minus") == pytest.approx(want_minus, abs=1e-12)


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
    # the margin moves at MARGIN_SLOPE along the identity: the identity sits
    # 1 inside every cone, and R - (margin / slope) Id lies on the boundary
    slope = cones.MARGIN_SLOPE[cone]
    assert cones.cone_margin(np.eye(6), cone) / slope == pytest.approx(1.0, abs=1e-12)
    t = cones.cone_margin(shifted, cone) / slope
    assert cones.cone_margin(shifted - t * np.eye(6), cone) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_shift_to_margin_rejects_a_nonfinite_target(target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target must be finite"):
            cones.shift_to_margin(_bianchi(4, norm=2.0), "ic_plus", target)


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


def test_membership_class_is_unchanged_under_powers_of_two():
    # the band is relative to |R|, and scaling by 2^k scales every margin
    # and the band exactly, so no operator crosses the band
    ops = _kernel_operators() + [cv.model(name, 3.0) for name in cv.MODEL_NAMES]
    for r in ops:
        want = cones.membership(r).classification
        for k in (-300, -30, 30, 300):
            assert cones.membership(np.ldexp(r, k)).classification == want, k


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


# -- frame route ---------------------------------------------------------------


def _isotropic_value(r, frame):
    # the frame objective at one frame, the plus-cone pairing
    return cones._pair_values(r, frame[None], 1.0)[0]


def test_isotropic_value_frozen_anchors():
    assert _isotropic_value(np.eye(6), np.eye(4)) == pytest.approx(4.0, abs=1e-14)
    assert _isotropic_value(cv.model("s2xs2", 1.0), np.eye(4)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_isotropic_value_is_frame_equivariant(rng):
    r = _bianchi(6)
    f = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    # moving the frame by g equals pulling the operator back
    lhs = _isotropic_value(r, g @ f)
    rhs = _isotropic_value(cv.act(g, r), f)
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


def _quat_exp(x):
    # exp of the pure quaternion (0, x): cos|x| + sin|x| x / |x|.
    th = np.linalg.norm(x)
    return np.r_[1.0, 0.0, 0.0, 0.0] if th == 0.0 else np.r_[np.cos(th), (np.sin(th) / th) * x]


def _objective_along(r, sign, q, idle, x):
    # The frame objective with the moving factor q exp(x), x a pure quaternion.
    moving = l2._left_mul(q) @ _quat_exp(np.asarray(x, dtype=float))
    frame = cones._frame(sign, moving, idle)
    return float(cones._pair_values(r, frame, cones._FLIPS[sign])[0])


def test_exp_of_one_factor_is_closed_form(rng):
    # multiplication by exp(x) is the matrix exponential of multiplication by x
    for scale in (0.0, 1e-3, 0.5, 2.0):
        x = scale * rng.standard_normal(3)
        m = l2._left_mul(np.r_[0.0, x])
        want = sum(np.linalg.matrix_power(m, k) / math.factorial(k) for k in range(40))
        np.testing.assert_allclose(l2._left_mul(_quat_exp(x)), want, rtol=0, atol=1e-14)


def _sphere_state(r, sign, q):
    # C, H = C(q, q, ., .) and f = C(q, q, q, q) at q, as the polish holds them.
    c = cones._quartic_tensor(cones._quartic_form(r, sign))
    h, f = cones._tensor_values(c, q[None])
    return c, h[0], float(f[0])


def test_frame_derivatives_match_central_differences(rng):
    # gradient and 2x2 Hessian from C against central differences of the
    # frame objective along the frames of q exp(t_1 j + t_2 k)
    step = 1e-4
    e = np.eye(2)
    for k in range(6):
        r = _bianchi(200 + k, norm=(1.0, 1e3)[k % 2])
        q, idle = l2.haar_quaternions(rng, 2)
        for sign in ("+", "-"):
            _, h, f = _sphere_state(r, sign, q)
            (g1, g2, a, b, d), _ = cones._sphere_derivatives(h, q, f)
            grad, hess = [g1, g2], [[a, b], [b, d]]
            obj = lambda t: _objective_along(r, sign, q, idle, [0.0, *(step * t)])
            fd_grad = [(obj(e[i]) - obj(-e[i])) / (2.0 * step) for i in range(2)]
            fd_hess = [
                [(obj(e[i] + e[j]) - obj(e[i] - e[j]) - obj(e[j] - e[i]) + obj(-e[i] - e[j]))
                 / (4.0 * step * step) for j in range(2)]
                for i in range(2)
            ]
            tol = 1e-6 * (1.0 + np.linalg.norm(r))
            np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=tol)
            np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=tol)


def test_the_first_eigenspace_direction_leaves_the_objective_unchanged(rng):
    # q exp(t i) moves the frame along X_0, the first direction of the
    # eigenspace, which turns u and v inside their own plane, so the polish
    # can drop it: the frame objective and its gradient along q i vanish
    for k in range(20):
        r = _bianchi(300 + k, norm=(1.0, 1e6, 1e-3)[k % 3])
        q, idle = l2.haar_quaternions(rng, 2)
        tol = 1e-14 * (1.0 + np.linalg.norm(r))
        for sign in ("+", "-"):
            _, h, _ = _sphere_state(r, sign, q)
            grad_i = 4.0 * (l2._left_mul(q)[:, 1] @ h.reshape(4, 4) @ q)
            assert abs(grad_i) <= tol
            f0 = _objective_along(r, sign, q, idle, [0.0, 0.0, 0.0])
            for t in (0.3, -1.2):
                assert abs(_objective_along(r, sign, q, idle, [t, 0.0, 0.0]) - f0) <= tol


def _reference_quartic_tensor(k):
    # Reference route for cones._quartic_tensor: K spread as a (4, 4, 4, 4)
    # array and averaged over the three slot pairings by transposes
    w = cones._PAIR_WEIGHT
    d = k[cones._PAIR_MONOMIAL[:, :, None, None], cones._PAIR_MONOMIAL] * (w[:, :, None, None] * w)
    return ((d + d.transpose(0, 2, 1, 3) + d.transpose(0, 2, 3, 1)) / 3.0).reshape(16, 16)


def _monomial_values(k, q):
    # Reference route for the sampler's scores: m(q)^T K m(q) on the ten
    # degree-two monomials of each row of q.
    m = l2._monomials(q)
    return np.einsum("pn,pq,qn->n", m, k, m)


def test_quartic_tensor_equals_the_quartic_form(rng):
    # C is symmetric in its four slots and C(q, q, q, q) = m(q)^T K m(q);
    # the gathered C is bit for bit the transposed reference
    q = l2.haar_quaternions(rng, 64)
    perms = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)]
    for k, norm in enumerate([1.0, 1e6, 1e-3]):
        r = _bianchi(500 + k, norm=norm)
        tol = 1e-14 * (1.0 + np.linalg.norm(r))
        for sign in ("+", "-"):
            kf = cones._quartic_form(r, sign)
            c = cones._quartic_tensor(kf)
            assert np.array_equal(c, _reference_quartic_tensor(kf))
            c4 = c.reshape(4, 4, 4, 4)
            for p in perms:
                np.testing.assert_allclose(c4.transpose(p), c4, rtol=0, atol=tol)
            h, f = cones._tensor_values(c, q)
            np.testing.assert_allclose(f, _monomial_values(kf, q), rtol=0, atol=tol)
            want_h = np.einsum("abcd,na,nb->ncd", c4, q, q).reshape(-1, 16)
            np.testing.assert_allclose(h, want_h, rtol=0, atol=tol)


def _fitted_form(r, sign):
    # The 3x3 form of the quartic form on the Hopf image, unscaled.
    return (cones._HOPF_FIT @ cones._quartic_form(r, sign).ravel()).reshape(3, 3)


def _hopf_operators():
    # random, boundary-shifted and 1e+-6-norm operators
    ops = [_bianchi(800 + k, norm=norm) for k, norm in enumerate([1.0, 1.0, 1e6, 1e-6])]
    for k, cone in enumerate(("ic_plus", "ic_minus", "ic")):
        ops.append(cones.shift_to_margin(_bianchi(810 + k, norm=1.0), cone, 0.0))
    rng = np.random.default_rng(820)
    g = l2.quat_to_rot(l2.haar_quaternion(rng), l2.haar_quaternion(rng))
    return ops + [cv.act(g, cv.model("cp2", 3.0)), cv.act(g, cv.model("cp2bar", 3.0))]


def test_hopf_form_equals_the_quartic_form(rng):
    # m(q)^T K m(q) = h(q)^T M h(q) on unit rows, and on raw rows v the
    # score h(v)^T M h(v) / |v|^4 is the value at v / |v|
    v = l2._gaussian_rows(rng, 256)
    q = l2._unit_rows(v)
    for r in _hopf_operators():
        tol = 1e-14 * (1.0 + np.linalg.norm(r))
        for sign in ("+", "-"):
            m = _fitted_form(r, sign)
            assert np.array_equal(m, m.T)
            want = _monomial_values(cones._quartic_form(r, sign), q)
            for rows in (q, v):
                np.testing.assert_allclose(cones._hopf_values(m, rows), want, rtol=0, atol=tol)


def test_hopf_form_is_scaled_by_an_exact_power_of_two():
    for r in _hopf_operators() + [np.ldexp(_bianchi(830, norm=1.0), 1018)]:
        for sign in ("+", "-"):
            m, scaled = _fitted_form(r, sign), cones._hopf_form(cones._quartic_form(r, sign))
            top = np.abs(scaled).max()
            assert 0.5 <= top < 1.0
            assert np.array_equal(np.ldexp(scaled, np.frexp(np.abs(m).max())[1]), m)
    zero = np.zeros((10, 10))
    assert np.array_equal(cones._hopf_form(zero), np.zeros((3, 3)))


def test_quartic_sampler_equals_the_pair_values(rng):
    # the "+" value depends on q1 alone and the "-" value on q2 alone
    q1, q2, other = (l2.haar_quaternions(rng, 64) for _ in range(3))
    for k, norm in enumerate([1.0, 1e6, 1e-3, 1.0]):
        r = _bianchi(400 + k, norm=norm)
        tol = 1e-14 * (1.0 + np.linalg.norm(r))
        for sign, flip in (("+", 1.0), ("-", -1.0)):
            got = cones._hopf_values(_fitted_form(r, sign), q1 if sign == "+" else q2)
            frames = l2._quat_to_rot_batch(q1, q2)
            np.testing.assert_allclose(got, cones._pair_values(r, frames, flip), rtol=0, atol=tol)
            moved = l2._quat_to_rot_batch(q1, other) if sign == "+" else l2._quat_to_rot_batch(other, q2)
            np.testing.assert_allclose(got, cones._pair_values(r, moved, flip), rtol=0, atol=tol)


def _reference_draw(sign, samples, seed):
    # The sampler's stream: the moving factor's samples in one draw, then one
    # idle draw, as the (q1, q2) rows of every sampled frame.
    rng = np.random.default_rng(seed)
    moving = l2.haar_quaternions(rng, samples)
    idle = np.repeat(l2.haar_quaternions(rng, 1), samples, axis=0)
    return (moving, idle) if sign == "+" else (idle, moving)


def _reference_sample_values(r, sign, samples, seed):
    # Reference: every sampled frame built and evaluated by _pair_values.
    flip = 1.0 if sign == "+" else -1.0
    frames = l2._quat_to_rot_batch(*_reference_draw(sign, samples, seed))
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
    # Reference: every frame of one full haar_quaternions draw evaluated by
    # _pair_values.  Returns the best frame, its value read from that frame
    # alone, and whether the best value is clear of the next one by
    # 1e-12 (1 + |R|).
    q1, q2 = _reference_draw(sign, samples, seed)
    flip = cones._FLIPS[sign]
    vals = cones._pair_values(r, l2._quat_to_rot_batch(q1, q2), flip)
    best = int(np.argmin(vals))
    clear = samples == 1 or np.partition(vals, 1)[1] - vals[best] > 1e-12 * (1.0 + np.linalg.norm(r))
    g = l2._quat_to_rot_batch(q1[best : best + 1], q2[best : best + 1])
    return g[0], float(cones._pair_values(r, g, flip)[0]), clear


def _sampled_frame(r, sign, samples, seed):
    # The best sample's frame and its value, as min_isotropic builds them.
    moving, idle = cones._best_sample(cones._quartic_form(r, sign), samples, seed)
    g = cones._frame(sign, moving, idle)
    return g[0], float(cones._pair_values(r, g, cones._FLIPS[sign])[0])


@pytest.mark.parametrize("samples", [1, 16, 1000, 1023, 1024, 1025, 4096, 10_000])
def test_blocked_best_sample_equals_one_full_draw(samples):
    # the winner is the best frame of the full draw bit for bit; each best
    # value here is clear of the next one, so rounding cannot decide it
    ops = [_bianchi(600 + k, norm=norm) for k, norm in enumerate([1.0, 1e6, 1e-6])]
    ops.append(cones.shift_to_margin(_bianchi(603, norm=1.0), "ic_minus", 0.0))
    for k, r in enumerate(ops):
        for sign in ("+", "-"):
            g, f = _sampled_frame(r, sign, samples, k)
            want_g, want_f, clear = _reference_best_sample(r, sign, samples, k)
            assert clear
            assert np.array_equal(g, want_g)
            assert f == want_f


@pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 4096])
def test_best_sample_draws_the_moving_factor_then_one_idle_draw(samples):
    # the stream holds every sample first, then one idle draw; the winner is
    # one sampled row with its haar_quaternions bits, the first on a tie
    r = _bianchi(610, norm=1.0)
    for k in (cones._quartic_form(r, "+"), cones._quartic_form(r, "-"), np.zeros((10, 10))):
        moving, idle = cones._best_sample(k, samples, samples)
        rng = np.random.default_rng(samples)
        draw = l2.haar_quaternions(rng, samples)
        assert (draw == moving).all(axis=1).any()
        assert np.array_equal(idle, l2.haar_quaternions(rng, 1)[0])
    # the zero form ties every sample, across blocks too, and the first wins
    assert np.array_equal(moving, draw[0])


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
    for sign in ("+", "-"):
        k = cones._quartic_form(zero, sign)
        moving, idle = cones._best_sample(k, 16, 0)
        assert cones._pair_values(zero, cones._frame(sign, moving, idle), cones._FLIPS[sign])[0] == 0.0
        q, *rest = cones._polish_quaternion(zero, cones._quartic_tensor(k), moving)
        assert rest == [0.0, 0, "gradient"]
        assert np.array_equal(q, moving)
        assert cones.min_isotropic(zero, sign, samples=16) == 0.0


def test_min_isotropic_is_homogeneous_under_powers_of_two():
    # scaling by 2^k is exact in every step of the sampler and the polish,
    # and each of their tests (the polish stop too) scales with the operator;
    # at 2^1018 the raw sample scores overflow unless the sampler's 3x3 form
    # is rescaled
    for seed in range(3):
        r = _bianchi(700 + seed, norm=1.0)
        for sign in ("+", "-"):
            for polish in (True, False):
                v = cones.min_isotropic(r, sign, samples=256, seed=seed, polish=polish)
                for k in (-1000, -300, -60, -30, -3, 5, 30, 60, 300, 1000, 1018):
                    got = cones.min_isotropic(np.ldexp(r, k), sign, samples=256, seed=seed, polish=polish)
                    assert got == np.ldexp(v, k), (seed, sign, polish, k)


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


def _polish_starts():
    # (r, sign, C, moving, idle, seed) of the polish's stress operators and
    # the iso_frames pool, each from its best of 4096 samples
    stress = [(r, sign) for r in _tie_operators() + _kernel_operators() for sign in "+-"]
    stress.append((_SLOW_MINUS, "-"))
    for k, (r, sign) in enumerate(stress + _iso_frames_pool(64)):
        kf = cones._quartic_form(r, sign)
        moving, idle = cones._best_sample(kf, 4096, k)
        yield r, sign, cones._quartic_tensor(kf), moving, idle, k


def test_polish_reports_its_stop_and_never_reaches_the_cap():
    for r, sign, c, moving, idle, seed in _polish_starts():
        f0 = float(cones._tensor_values(c, moving[None])[1][0])
        q, fval, steps, stop = cones._polish_quaternion(r, c, moving)
        assert stop in ("gradient", "no_descent")
        assert steps <= 30
        assert fval <= f0
        frame = cones._frame(sign, q, idle)
        got = float(cones._pair_values(r, frame, cones._FLIPS[sign])[0])
        assert got == cones.min_isotropic(r, sign, samples=4096, seed=seed)


def _reference_newton_step(grad, hess, tol):
    # Reference route for cones._newton_step: the saddle-free step through
    # LAPACK's eigh, -V |L|^-1 V^T g with each |eigenvalue| floored at tol,
    # cut to norm 1.
    lam, vec = np.linalg.eigh(hess)
    d = -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), tol))
    return d / max(1.0, float(np.linalg.norm(d)))


def _reference_polish(r, c, q):
    # Reference route for cones._polish_quaternion: the same descent with the
    # derivatives from the full 4x4 Hessian 12 H - 4 f I projected on the
    # tangent basis E, and each step from _reference_newton_step.
    scale = float(cv._norm(r))
    h, f = cones._tensor_values(c, q[None])
    h, fval = h[0], float(f[0])
    for step in range(cones.POLISH_STEPS):
        e = l2._left_mul(q)[:, 2:]
        hm = h.reshape(4, 4)
        grad = 4.0 * (e.T @ (hm @ q))
        hess = e.T @ (12.0 * hm - 4.0 * fval * np.eye(4)) @ e
        tol = 1e-11 * (scale + abs(fval))
        if float(cv._norm(grad)) <= tol:
            return q, fval, step, "gradient"
        d = _reference_newton_step(grad, hess, tol)
        trials = l2._unit_rows(q + cones._LINE_STEPS[:, None] * (e @ d))
        hs, vals = cones._tensor_values(c, trials)
        passed = np.flatnonzero(vals < fval + 1e-4 * cones._LINE_STEPS * float(grad @ d))
        if not passed.size:
            return q, fval, step, "no_descent"
        j = passed[0]
        q, h, fval = trials[j], hs[j], float(vals[j])
    return q, fval, cones.POLISH_STEPS, "cap"


def _rotated_hessian(rng, lam):
    # [a, b, d] of the symmetric 2x2 matrix with eigenvalues lam in a random basis
    t = rng.uniform(0.0, np.pi)
    v = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    m = v @ np.diag(lam) @ v.T
    return [m[0, 0], m[1, 0], m[1, 1]]


def _newton_step_cases():
    # (g, [a, b, d], tol): random symmetric Hessians, diagonal ones (b = 0,
    # either sign of zero), ties a = d with b = 0 (zero radius) and b != 0,
    # indefinite ones, and ones with both |eigenvalues| below tol; gradients
    # large enough for the norm-1 cut and small enough to miss it
    rng = np.random.default_rng(19)
    tol = 1e-11
    cases = []
    for k in range(120):
        g = rng.standard_normal(2) * 10.0 ** rng.uniform(-4.0, 1.0)
        a, b, d = rng.standard_normal(3)
        x, y = rng.uniform(0.1, 3.0, 2)
        cases += [
            (g, [a, b, d], tol),
            (g, [a, (0.0, -0.0)[k % 2], d], tol),
            (g, [a, 0.0, a], tol),
            (g, [a, b, a], tol),
            (g, _rotated_hessian(rng, [x, -y]), tol),
            (g, _rotated_hessian(rng, [x, -x]), tol),
            (g, _rotated_hessian(rng, rng.uniform(-1.0, 1.0, 2) * tol), tol),
            (g, [0.0, 0.0, 0.0], tol),
        ]
    return cases


def test_newton_step_is_the_eigh_step():
    # the closed form agrees with eigh to rounding, which the conditioning
    # |lambda|_max / max(|lambda|_min, tol) of the floored Hessian amplifies,
    # on every case and on its 2^k-scaled copies, and it scales exactly
    for g, (a, b, d), tol in _newton_step_cases():
        new = cones._newton_step(*g, a, b, d, tol)
        lam = np.abs(np.linalg.eigvalsh([[a, b], [b, d]]))
        cond = max(lam.max(), tol) / max(lam.min(), tol)
        for k in (-300, -60, -3, 0, 5, 60, 300):
            gk, (ak, bk, dk), tk = np.ldexp(g, k), np.ldexp([a, b, d], k), np.ldexp(tol, k)
            assert cones._newton_step(*gk, ak, bk, dk, tk) == new, (g, a, b, d, k)
            want = _reference_newton_step(gk, np.array([[ak, bk], [bk, dk]]), tk)
            assert np.abs(np.subtract(new, want)).max() <= 1e-15 * cond, (g, a, b, d, k)


def test_polish_matches_the_eigh_reference_route():
    for r, sign, c, moving, _, _ in _polish_starts():
        _, fval, steps, stop = cones._polish_quaternion(r, c, moving)
        _, want, want_steps, _ = _reference_polish(r, c, moving)
        assert stop in ("gradient", "no_descent")
        assert abs(steps - want_steps) <= 1
        assert abs(fval - want) <= 1e-14 * (1.0 + np.linalg.norm(r))


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


@pytest.mark.parametrize("samples", [256.5, math.inf, math.nan])
def test_min_isotropic_rejects_a_count_that_is_not_an_integer(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        cones.min_isotropic(np.eye(6), samples=samples)
    r = _bianchi(10, norm=1.0)
    assert cones.min_isotropic(r, samples=256.0) == cones.min_isotropic(r, samples=256)
