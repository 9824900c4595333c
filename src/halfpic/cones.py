"""Curvature cones on R^4: scalar, half-isotropic (plus/minus), and their
intersection, with membership margins and the frame-based isotropic
curvature minimization used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lambda2
from .curvature import _check_count, _norm, require_bianchi_valid
from .lambda2 import MINUS_BASIS, PLUS_BASIS

CONE_IDS = ("scal", "ic_plus", "ic_minus", "ic")

BOUNDARY_TOL = 1e-9

# Shift slope of each cone margin along the identity direction:
# scal(R + t Id) = scal(R) + 12 t, pic margins move by 2 t.
MARGIN_SLOPE = {"scal": 12.0, "ic_plus": 2.0, "ic_minus": 2.0, "ic": 2.0}


def _check_sign(sign):
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


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


def two_positive_margin(m):
    """Sum of the two lowest eigenvalues of a symmetric 3x3 form; reference
    route for the ic_plus and ic_minus cone margins, which it equals on the
    plus or minus block."""
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
    """Shift along the identity so the chosen cone margin equals target,
    which must be finite."""
    _check_cone(cone)
    target = float(target)
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    r = require_bianchi_valid(r)
    t = (target - float(_margins(r)[cone])) / MARGIN_SLOPE[cone]
    return r + t * np.eye(6)


def default_boundary_tol(r):
    # Relative to the operator's scale-safe norm, so the band, like every
    # margin, scales exactly under powers of two.
    return BOUNDARY_TOL * float(_norm(r))


@dataclass
class MembershipReport:
    """Margins of all tracked cones plus a tolerance-based classification."""

    margins: dict = field(default_factory=dict)
    classification: str = "neither"

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
    return MembershipReport(margins=margins, classification=classification)


# ---------------------------------------------------------------------------
# frame-based isotropic curvature


# The columns f1, f2, f1, f2 and f3, f4, f4, f3 of a frame, wedged pairwise
# in one pass by _pair_values.
_WEDGE_LEFT = [0, 1, 0, 1]
_WEDGE_RIGHT = [2, 3, 3, 2]


def _pair_values(r, frames, flip):
    # frames: (n, 4, 4); returns the isotropic curvature sum
    # <R u, u> + <R v, v> of each frame, where u = f1^f3 - f2^f4',
    # v = f1^f4' + f2^f3 and f4' = flip * f4.
    cols = frames.swapaxes(1, 2)
    right = cols[:, _WEDGE_RIGHT]
    right[:, 1:3] *= flip
    w = lambda2._wedge(cols[:, _WEDGE_LEFT], right)
    u = w[:, 0] - w[:, 1]
    v = w[:, 2] + w[:, 3]
    return np.einsum("ni,ij,nj->n", u, r, u) + np.einsum("ni,ij,nj->n", v, r, v)


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


def _hopf(v):
    # The Hopf image h(v) = (a^2 + b^2 - c^2 - d^2, bc + ad, bd - ac) of each
    # row v = (a, b, c, d) of an (n, 4) stack, which is v i v-bar with its
    # last two components halved, as (3, n) rows, and s = |v|^2, from one
    # pass of squares.  Rows stored component-major give contiguous rows.
    vt = v.T
    a, b, c, d = vt
    x = vt * vt
    s = x[0] + x[1]
    t = x[2] + x[3]
    h = np.empty((3, len(s)))
    np.subtract(s, t, out=h[0])
    np.multiply(b, c, out=h[1])
    h[1] += a * d
    np.multiply(b, d, out=h[2])
    h[2] -= a * c
    s += t
    return h, s


def _hopf_fit():
    # The objective m(q)^T K m(q) is unchanged along the fibres q e^(ti) of
    # the Hopf map (see _sphere_derivatives) and under q -> q j, which turns
    # h into -h, so on unit quaternions it is h(q)^T M h(q) for a symmetric
    # 3x3 M, linear in K.  M is solved at the six unit quaternions
    # (1 + w0, 0, -w2, w1)/norm, which turn i into w = e1, e2, e3 and the
    # three pairwise diagonals.  Returns the (9, 100) table of M.ravel() in
    # K.ravel().
    eye = np.eye(3)
    w = np.vstack([eye, (eye[[0, 0, 1]] + eye[[1, 2, 2]]) / math.sqrt(2.0)])
    q = lambda2._unit_rows(np.column_stack([1.0 + w[:, 0], np.zeros(6), -w[:, 2], w[:, 1]]))
    h, _ = _hopf(q)
    i, j = np.triu_indices(3)
    a = (h[i] * h[j] * np.where(i == j, 1.0, 2.0)[:, None]).T
    m = lambda2._monomials(q)
    x = np.linalg.solve(a, (m[:, None] * m[None]).reshape(100, 6).T)
    return x[[0, 1, 2, 1, 3, 4, 2, 4, 5]]


_HOPF_FIT = _hopf_fit()


def _hopf_form(k):
    # The 3x3 form M of the quartic form K on the Hopf image, scaled by the
    # power of two that brings max|M| into [1/2, 1): exact, so no argmin
    # moves, and a raw score, up to |v|^4 |M|, cannot overflow.
    m = (_HOPF_FIT @ k.ravel()).reshape(3, 3)
    top = np.abs(m).max()
    return np.ldexp(m, -np.frexp(top)[1]) if top > 0.0 else m


def _hopf_values(m, v):
    # The objective f(v/|v|) = h(v)^T M h(v) / |v|^4 of each raw row of an
    # (n, 4) block stored component-major.
    h, s = _hopf(v)
    return np.einsum("pn,pn->n", m @ h, h) / (s * s)


# The monomial of each ordered pair (a, b) and the weight that spreads it
# over the pair and its mirror: m_P = sum over the pairs (a, b) of P of
# w_ab q_a q_b, with w_ab = 1 on the diagonal and 1/2 off it.  D[a, b, c, d]
# = K[P(a, b), P(c, d)] w_ab w_cd is gathered from the flat K at once in the
# three slot orders (a, b, c, d), (a, c, b, d) and (a, d, b, c), as rows of
# _QUARTIC_INDEX and _QUARTIC_WEIGHTS.
_PAIR_MONOMIAL = np.zeros((4, 4), dtype=int)
_PAIR_MONOMIAL[lambda2._MONO_A, lambda2._MONO_B] = np.arange(10)
_PAIR_MONOMIAL[lambda2._MONO_B, lambda2._MONO_A] = np.arange(10)
_PAIR_WEIGHT = np.where(np.eye(4, dtype=bool), 1.0, 0.5)
_SLOT_ORDERS = [(0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 3, 1)]
_QUARTIC_INDEX = np.stack([
    (10 * _PAIR_MONOMIAL[:, :, None, None] + _PAIR_MONOMIAL).transpose(t).ravel() for t in _SLOT_ORDERS
])
_QUARTIC_WEIGHTS = np.stack([
    (_PAIR_WEIGHT[:, :, None, None] * _PAIR_WEIGHT).transpose(t).ravel() for t in _SLOT_ORDERS
])


def _quartic_tensor(k):
    # The symmetric quartic tensor C with C(q, q, q, q) = m(q)^T K m(q):
    # K spread over the ordered pairs of each monomial, then averaged over
    # the three ways of pairing four slots.  Returned as (16, 16), the
    # slot pairs (a, b) and (c, d) flattened.
    d = k.ravel()[_QUARTIC_INDEX] * _QUARTIC_WEIGHTS
    return ((d[0] + d[1] + d[2]) / 3.0).reshape(16, 16)


def _tensor_values(c, q):
    # For each row q of an (n, 4) stack: H = C(q, q, ., .), flattened to 16,
    # and the value f = C(q, q, q, q) = q^T H q.
    qq = (q[:, :, None] * q[:, None, :]).reshape(-1, 16)
    h = qq @ c
    return h, (h * qq).sum(axis=1)


def _sphere_derivatives(h, q, fval):
    # Gradient and Riemannian Hessian of f = C(q, q, q, q) on the unit
    # sphere at q, along the tangent directions q j and q k, the columns E
    # of the left multiplication by q past q and q i, all from one product
    # H E: the gradient is 4 q^T H E and, as E^T E = I, the Hessian is
    # 12 E^T H E less the curvature term 4 f I.  The third direction q i
    # turns u and v inside their own plane and leaves f unchanged.
    # Returns the gradient (g1, g2) and the Hessian [[a, b], [b, d]] as five
    # floats, b from its lower triangle, and E.
    left = lambda2._left_mul(q)
    e = left[:, 2:]
    (g1, g2), _, (a, _), (b, d) = (left.T @ (h.reshape(4, 4) @ e)).tolist()
    return (4.0 * g1, 4.0 * g2, 12.0 * a - 4.0 * fval, 12.0 * b, 12.0 * d - 4.0 * fval), e


def _newton_step(g1, g2, a, b, d, tol):
    # The saddle-free Newton step -|Hess|^-1 g for the 2x2 Hessian
    # [[a, b], [b, d]], in closed form: its eigenvalues (a + d)/2 +- the
    # hypot of (a - d)/2 and b, the top one's eigenvector at the angle
    # atan2(2b, a - d)/2 (0 at a tie, where any basis is an eigenbasis),
    # each |eigenvalue| floored at tol.  The step is cut to norm 1.  Every
    # operation scales exactly under powers of two, so the step does not
    # change when g, the Hessian and tol are scaled together.
    mid, rad = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    angle = 0.5 * math.atan2(2.0 * b, a - d)
    c, s = math.cos(angle), math.sin(angle)
    top = (c * g1 + s * g2) / max(abs(mid + rad), tol)
    low = (c * g2 - s * g1) / max(abs(mid - rad), tol)
    d1, d2 = s * low - c * top, -s * top - c * low
    cut = max(1.0, math.hypot(d1, d2))
    return d1 / cut, d2 / cut


def _best_sample(k, samples, seed):
    # The moving and the idle quaternion, (4,) each, of the best sampled
    # frame by the quartic form K (the first, on a tie).  The stream holds
    # the moving factor's samples first, drawn raw in lambda2.HAAR_BLOCK-row
    # blocks and scored through the 3x3 form of K on their Hopf images, then
    # one draw for the idle factor: the objective does not depend on it, so
    # any unit quaternion gives the winner's value.  Only the winning row is
    # normalized, which gives it the bits of its haar_quaternions row.
    rng = np.random.default_rng(seed)
    m = _hopf_form(k)
    best, low = None, np.inf
    for start in range(0, samples, lambda2.HAAR_BLOCK):
        v = lambda2._gaussian_rows(rng, min(lambda2.HAAR_BLOCK, samples - start))
        vals = _hopf_values(m, v)
        j = int(np.argmin(vals))
        if best is None or vals[j] < low:
            best, low = v[j].copy(), vals[j]  # a copy frees the block
    return lambda2._unit_rows(best[None])[0], lambda2.haar_quaternions(rng, 1)[0]


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
    factor.  The objective is constant on the fibres of the Hopf map
    S^3 -> S^2, so each raw Gaussian draw is scored by a 3x3 form on its
    Hopf image, and only the winner (the first, on a tie) is normalized.
    The best sample's factor is refined by Newton steps on the unit sphere,
    and the value is read once from the frame it gives.  The result
    converges from above to twice the two-positivity margin of the matching
    Weyl-plus-scalar block.
    """
    r = require_bianchi_valid(r)
    _check_sign(sign)
    n = _check_count(samples, "samples")
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
    # each step is _newton_step on the 2x2 Riemannian Hessian, searched at
    # the _LINE_STEPS lengths at once, each trial normalized back to the
    # sphere and all scored through C in one contraction.  The gradient stop
    # and the Hessian floor scale with |R| + |f|, |R| taken by the
    # scale-safe curvature._norm and |g| by math.hypot, so the result does
    # not depend on the operator's scale, and the zero operator stops at
    # once.
    # Returns the quaternion, its value f, the number of steps taken and why
    # the descent stopped: "gradient", "no_descent" or "cap".
    scale = float(_norm(r))
    h, f = _tensor_values(c, q[None])
    h, fval = h[0], float(f[0])
    for step in range(POLISH_STEPS):
        (g1, g2, a, b, d), e = _sphere_derivatives(h, q, fval)
        tol = 1e-11 * (scale + abs(fval))
        if math.hypot(g1, g2) <= tol:
            return q, fval, step, "gradient"
        d1, d2 = _newton_step(g1, g2, a, b, d, tol)
        trials = lambda2._unit_rows(q + _LINE_STEPS[:, None] * (e @ (d1, d2)))
        hs, vals = _tensor_values(c, trials)
        slope = 1e-4 * (g1 * d1 + g2 * d2)
        for j, (v, t) in enumerate(zip(vals.tolist(), _LINE_STEPS.tolist())):
            if v < fval + slope * t:
                break
        else:
            return q, fval, step, "no_descent"
        q, h, fval = trials[j], hs[j], v
    return q, fval, POLISH_STEPS, "cap"
