"""Curvature cones on R^4: scalar, half-isotropic (plus/minus), and their
intersection, with membership margins, inradii, and the frame-based isotropic
curvature minimization used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lambda2
from .curvature import _norm, require_bianchi_valid
from .lambda2 import MINUS_BASIS, PLUS_BASIS

CONE_IDS = ("scal", "ic_plus", "ic_minus", "ic")

BOUNDARY_TOL = 1e-9
WILKING_TOL = 1e-9

# Shift slope of each cone margin along the identity direction:
# scal(R + t Id) = scal(R) + 12 t, pic margins move by 2 t.
MARGIN_SLOPE = {"scal": 12.0, "ic_plus": 2.0, "ic_minus": 2.0, "ic": 2.0}


def _check_sign(sign):
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign


def _check_samples(samples):
    n = int(samples)
    if n < 1:
        raise ValueError("samples must be positive")
    return n


# Both eigenspace bases stacked, so the two Weyl blocks of an operator go
# through a single eigvalsh call.
_BASES = np.stack([PLUS_BASIS, MINUS_BASIS])
_BASES_T = np.swapaxes(_BASES, -1, -2)


def _margins(r):
    """Margins of every tracked cone for a validated (..., 6, 6) stack; the
    one kernel behind all margins in cones and flow.  A half-cone margin is
    scal/6 minus the top Weyl eigenvalue, which is the top eigenvalue of the
    raw 3x3 block less scal/12."""
    s = 2.0 * np.trace(r, axis1=-2, axis2=-1)
    blocks = _BASES_T @ r[..., None, :, :] @ _BASES
    top = np.linalg.eigvalsh(blocks)[..., -1] - s[..., None] / 12.0
    m = s[..., None] / 6.0 - top
    return {"scal": s, "ic_plus": m[..., 0], "ic_minus": m[..., 1], "ic": m.min(axis=-1)}


def _check_cone(cone):
    if cone not in CONE_IDS:
        raise ValueError(f"unknown cone {cone!r}; choose from {CONE_IDS}")


def pic_margin(r, sign="+"):
    """Margin of the half-isotropic cone: scal/6 minus the top eigenvalue of
    the chosen Weyl block.  Positive means strictly inside."""
    return cone_margin(r, "ic_plus" if _check_sign(sign) == "+" else "ic_minus")


def two_positive_margin(m):
    """Sum of the two lowest eigenvalues of a symmetric 3x3 form; reference
    route for pic_margin, which it equals on the plus or minus block."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    ev = np.linalg.eigvalsh(m)
    return float(ev[0] + ev[1])


def cone_margin(r, cone):
    """Signed membership margin of one of the tracked cones."""
    _check_cone(cone)
    return float(_margins(require_bianchi_valid(r))[cone])


def shift_to_margin(r, cone, target):
    """Shift along the identity so the chosen cone margin equals target."""
    _check_cone(cone)
    r = require_bianchi_valid(r)
    t = (float(target) - float(_margins(r)[cone])) / MARGIN_SLOPE[cone]
    return r + t * np.eye(6)


def default_boundary_tol(r):
    return BOUNDARY_TOL * (1.0 + float(_norm(r)))


@dataclass
class MembershipReport:
    """Margins of all tracked cones plus a tolerance-based classification."""

    margins: dict = field(default_factory=dict)
    classification: str = "neither"
    tol: float = BOUNDARY_TOL

    def to_json(self):
        out = {k: float(self.margins[k]) for k in CONE_IDS}
        out["class"] = self.classification
        return out


def _classify(mp, mm, tol):
    if mp > tol and mm > tol:
        return "PIC"
    if mp >= -tol and mm >= -tol:
        return "NNIC"
    if mp > tol:
        return "PIC+"
    if mp >= -tol:
        return "NNIC+"
    if mm > tol:
        return "PIC-"
    if mm >= -tol:
        return "NNIC-"
    return "neither"


def membership(r, tol=None):
    """Evaluate every cone margin and classify the operator.

    Interior within tol of a half cone reads PIC+/-, the closure reads
    NNIC+/-, two-sided labels take precedence, anything else is neither.
    tol must be finite and nonnegative.
    """
    r = require_bianchi_valid(r)
    if tol is None:
        tol = default_boundary_tol(r)
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    margins = {c: float(m) for c, m in _margins(r).items()}
    classification = _classify(margins["ic_plus"], margins["ic_minus"], tol)
    return MembershipReport(margins=margins, classification=classification, tol=tol)


def inradius(r, cone):
    """Largest t with R - t Id still in the cone: margin / MARGIN_SLOPE."""
    m = cone_margin(r, cone)
    if m < -default_boundary_tol(r):
        raise ValueError(f"operator lies outside the {cone} cone (margin {m:.3e})")
    return m / MARGIN_SLOPE[cone]


# ---------------------------------------------------------------------------
# frame-based isotropic curvature


def check_frame(f):
    """Validate an oriented orthonormal frame (special orthogonal 4x4)."""
    f = lambda2.check_rotation(f, name="frame")
    if np.linalg.det(f) < 0.0:
        raise ValueError("frame is orientation reversing; compose with a flip first")
    return f


# The columns f1, f2, f1, f2 and f3, f4, f4, f3 of a frame, wedged pairwise
# in one pass by _pair_values.
_WEDGE_LEFT = [0, 1, 0, 1]
_WEDGE_RIGHT = [2, 3, 3, 2]


def _pair_values(r, frames, flip):
    # frames: (n, 4, 4); returns <R u, u> + <R v, v> for each frame, where
    # u = f1^f3 - f2^f4', v = f1^f4' + f2^f3 and f4' = flip * f4.
    cols = frames.swapaxes(1, 2)
    right = cols[:, _WEDGE_RIGHT]
    right[:, 1:3] *= flip
    w = lambda2._wedge(cols[:, _WEDGE_LEFT], right)
    u = w[:, 0] - w[:, 1]
    v = w[:, 2] + w[:, 3]
    return np.einsum("ni,ij,nj->n", u, r, u) + np.einsum("ni,ij,nj->n", v, r, v)


def isotropic_value(r, frame):
    """Isotropic curvature sum of an oriented frame,
    <R u, u> + <R v, v> with u = f1^f3 - f2^f4 and v = f1^f4 + f2^f3."""
    r = require_bianchi_valid(r)
    frame = check_frame(frame)
    return float(_pair_values(r, frame[None], 1.0)[0])


# The sign of f4 in _pair_values for each half cone.
_FLIPS = {"+": 1.0, "-": -1.0}


def _pair_bivectors(flip):
    # u and v of _pair_values at the identity frame, as the rows a, b.
    e = np.eye(4)
    w = lambda2._wedge
    return np.stack([w(e[0], e[2]) - flip * w(e[1], e[3]), flip * w(e[0], e[3]) + w(e[1], e[2])])


def _sample_tables(sign):
    # The quaternion factor that rotates the sign eigenspace is the only one
    # that moves u and v, and its induced map is quadratic in its quaternion,
    # so a sample's u and v are sum_P m_P (C_P a) and sum_P m_P (C_P b) over
    # its ten monomials m_P.  (2, 10, 6): the rows C_P a, then the rows C_P b.
    return np.einsum("pij,cj->cpi", lambda2.S3_TABLES[sign], _pair_bivectors(_FLIPS[sign]))


_SAMPLE_TABLES = {sign: _sample_tables(sign) for sign in _FLIPS}


def _quartic_form(r, sign):
    # The 10x10 quartic form K = U R U^T + V R V^T whose value on the
    # monomials of the quaternion that moves u and v (q1 for "+", q2 for
    # "-") is the objective of the frames x -> q1 x q2^(-1).
    t = _SAMPLE_TABLES[sign]
    return (t @ r @ t.swapaxes(1, 2)).sum(axis=0)


def _sample_values(k, q):
    # The objective of each row of q, the moving factor, through K.
    m = lambda2._monomials(q)
    return np.vecdot(m @ k, m)


# The monomial of each ordered pair (a, b) and the weight that spreads it
# over the pair and its mirror: m_P = sum over the pairs (a, b) of P of
# w_ab q_a q_b, with w_ab = 1 on the diagonal and 1/2 off it;
# _PAIR_WEIGHTS[a, b, c, d] = w_ab w_cd.
_PAIR_MONOMIAL = np.zeros((4, 4), dtype=int)
_PAIR_MONOMIAL[lambda2._MONO_A, lambda2._MONO_B] = np.arange(10)
_PAIR_MONOMIAL[lambda2._MONO_B, lambda2._MONO_A] = np.arange(10)
_PAIR_WEIGHT = np.where(np.eye(4, dtype=bool), 1.0, 0.5)
_PAIR_WEIGHTS = _PAIR_WEIGHT[:, :, None, None] * _PAIR_WEIGHT


def _quartic_tensor(k):
    # The symmetric quartic tensor C with C(q, q, q, q) = m(q)^T K m(q):
    # K spread over the ordered pairs of each monomial, then averaged over
    # the three ways of pairing four slots.  Returned as (16, 16), the
    # slot pairs (a, b) and (c, d) flattened.
    d = k[_PAIR_MONOMIAL[:, :, None, None], _PAIR_MONOMIAL] * _PAIR_WEIGHTS
    c = (d + d.transpose(0, 2, 1, 3) + d.transpose(0, 2, 3, 1)) / 3.0
    return c.reshape(16, 16)


def _tensor_values(c, q):
    # For each row q of an (n, 4) stack: H = C(q, q, ., .), flattened to 16,
    # and the value f = C(q, q, q, q) = q^T H q.
    qq = (q[:, :, None] * q[:, None, :]).reshape(-1, 16)
    h = qq @ c
    return h, (h * qq).sum(axis=1)


def _sphere_derivatives(h, q, fval):
    # Gradient and Riemannian Hessian of f = C(q, q, q, q) on the unit
    # sphere at q, along the tangent directions q j and q k (columns 2, 3 of
    # the left multiplication by q): the Euclidean gradient is 4 H q and the
    # Hessian 12 H, less the curvature term 4 f I.  The third direction q i
    # turns u and v inside their own plane and leaves f unchanged.
    e = lambda2._left_mul(q)[:, 2:]
    h = h.reshape(4, 4)
    return 4.0 * (e.T @ (h @ q)), e.T @ (12.0 * h - 4.0 * fval * np.eye(4)) @ e, e


def _best_sample(k, samples, seed):
    # The moving and the idle quaternion, (4,) each, of the best sampled
    # frame by the quartic form K (the first, on a tie).  The stream holds
    # the moving factor's samples first, scored in lambda2.HAAR_BLOCK-row
    # blocks as lambda2.haar_blocks draws them, then one draw for the idle
    # factor: the objective does not depend on it, so any unit quaternion
    # gives the winner's value.
    rng = np.random.default_rng(seed)
    best, low = None, np.inf
    for q in lambda2.haar_blocks(rng, samples):
        vals = _sample_values(k, q)
        j = int(np.argmin(vals))
        if best is None or vals[j] < low:
            best, low = q[j], vals[j]
    return best, lambda2.haar_quaternions(rng, 1)[0]


def _frame(sign, moving, idle):
    # The frame x -> q1 x q2^(-1) of the moving and the idle factor, as a
    # (1, 4, 4) stack: q1 moves for "+", q2 for "-".
    q1, q2 = (moving, idle) if sign == "+" else (idle, moving)
    return lambda2._quat_to_rot_batch(q1[None], q2[None])


def min_isotropic(r, sign="+", samples=10000, seed=0, polish=True):
    """Minimum isotropic value over the frame manifold.

    Frames x -> q1 x q2^(-1) are Haar-uniform on SO(4); the minus cone
    composes them with an orientation flip.  Only the quaternion factor that
    rotates the matching Hodge eigenspace (q1 for "+", q2 for "-") moves the
    objective, a quartic in that unit quaternion, so only it is sampled:
    `samples` Haar draws from the seed's stream, then one draw for the idle
    factor.  The best sample's factor is refined by Newton steps on the unit
    sphere, and the value is read once from the frame it gives.  The result
    converges from above to twice the two-positivity margin of the matching
    Weyl-plus-scalar block.
    """
    r = require_bianchi_valid(r)
    _check_sign(sign)
    n = _check_samples(samples)
    k = _quartic_form(r, sign)
    q, idle = _best_sample(k, n, seed)
    if polish:
        q = _polish_quaternion(r, _quartic_tensor(k), q)[0]
    return float(_pair_values(r, _frame(sign, q, idle), _FLIPS[sign])[0])


POLISH_STEPS = 1000
# Trial lengths of the polish's line search, tried at once.
_LINE_STEPS = 0.5 ** np.arange(4)


def _polish_quaternion(r, c, q):
    # Saddle-free Newton descent of f = C(q, q, q, q) on the unit sphere:
    # each step solves with |H|, the 2x2 Riemannian Hessian with its
    # eigenvalues made positive, is cut to norm 1, and is searched at the
    # _LINE_STEPS lengths at once, each trial normalized back to the sphere
    # and all scored through C in one contraction.  The gradient stop and
    # the Hessian floor scale with |R| + |f|, both norms taken by the
    # scale-safe curvature._norm, so the result does not depend on the
    # operator's scale, and the zero operator stops at once.
    # Returns the quaternion, its value f, the number of steps taken and why
    # the descent stopped: "gradient", "no_descent" or "cap".
    scale = float(_norm(r))
    h, f = _tensor_values(c, q[None])
    h, fval = h[0], float(f[0])
    for step in range(POLISH_STEPS):
        grad, hess, e = _sphere_derivatives(h, q, fval)
        tol = 1e-11 * (scale + abs(fval))
        if float(_norm(grad)) <= tol:
            return q, fval, step, "gradient"
        lam, vec = np.linalg.eigh(hess)
        d = -vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), tol))
        d /= max(1.0, float(np.linalg.norm(d)))
        trials = lambda2._unit_rows(q + _LINE_STEPS[:, None] * (e @ d))
        hs, vals = _tensor_values(c, trials)
        passed = np.flatnonzero(vals < fval + 1e-4 * _LINE_STEPS * float(grad @ d))
        if not passed.size:
            return q, fval, step, "no_descent"
        j = passed[0]
        q, h, fval = trials[j], hs[j], float(vals[j])
    return q, fval, POLISH_STEPS, "cap"


# ---------------------------------------------------------------------------
# Wilking's nonnegativity set


@dataclass
class ComplexBivector:
    """Complex 2-form omega = re + i im given by two real bivectors."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=float)
        self.im = np.asarray(self.im, dtype=float)
        for part, label in ((self.re, "re"), (self.im, "im")):
            if part.shape != (6,) or not np.all(np.isfinite(part)):
                raise ValueError(f"{label} must be a finite 6-vector")


def in_wilking_set(omega, sign="+"):
    """Membership in the zero-trace-square set inside the complexified Hodge
    eigenspace: both parts fixed by the projector, equal norms, orthogonal."""
    _check_sign(sign)
    p = lambda2.P_PLUS if sign == "+" else lambda2.P_MINUS
    re, im = omega.re, omega.im
    bound = WILKING_TOL * (1.0 + float(re @ re + im @ im))
    if np.abs(p @ re - re).max() > bound:
        return False
    if np.abs(p @ im - im).max() > bound:
        return False
    if abs(float(re @ re - im @ im)) > bound:
        return False
    if abs(float(re @ im)) > bound:
        return False
    return True


def wilking_value(r, omega):
    """Hermitian evaluation <R re, re> + <R im, im>; rejects omega outside
    the set (either orientation)."""
    r = require_bianchi_valid(r)
    if not (in_wilking_set(omega, "+") or in_wilking_set(omega, "-")):
        raise ValueError("omega is not in the Wilking set for either orientation")
    return float(omega.re @ r @ omega.re + omega.im @ r @ omega.im)


def sample_wilking(rng, sign="+"):
    """Random unit-normalized member: an orthonormal pair in the eigenspace."""
    basis = PLUS_BASIS if _check_sign(sign) == "+" else MINUS_BASIS
    a, b = rng.standard_normal((2, 3))
    a = a / np.linalg.norm(a)
    b = b - (b @ a) * a
    b = b / np.linalg.norm(b)
    return ComplexBivector(re=basis @ a, im=basis @ b)


def wilking_min(r, sign="+", samples=4096, seed=0):
    """Minimum sampled wilking_value; converges from above to the
    two-positivity margin of the matching block."""
    r = require_bianchi_valid(r)
    basis = PLUS_BASIS if _check_sign(sign) == "+" else MINUS_BASIS
    n = _check_samples(samples)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 3))
    b = rng.standard_normal((n, 3))
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b - np.sum(b * a, axis=1, keepdims=True) * a
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    block = basis.T @ r @ basis
    vals = np.einsum("ni,ij,nj->n", a, block, a) + np.einsum("ni,ij,nj->n", b, block, b)
    return float(vals.min())
