"""Curvature cones on R^4: scalar, half-isotropic (plus/minus), and their
intersection, with membership margins, inradii, and the frame-based isotropic
curvature minimization used as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lambda2
from .curvature import require_bianchi_valid
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
    return BOUNDARY_TOL * (1.0 + float(np.linalg.norm(r)))


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
    """
    r = require_bianchi_valid(r)
    if tol is None:
        tol = default_boundary_tol(r)
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


def _pair_values(r, frames, flip):
    # frames: (n, 4, 4); returns <R u, u> + <R v, v> for each frame, where
    # u = f1^f3 - f2^f4', v = f1^f4' + f2^f3 and f4' = flip * f4.
    f1 = frames[:, :, 0]
    f2 = frames[:, :, 1]
    f3 = frames[:, :, 2]
    f4 = flip * frames[:, :, 3]
    w = lambda2._wedge
    u = w(f1, f3) - w(f2, f4)
    v = w(f1, f4) + w(f2, f3)
    return np.einsum("ni,ij,nj->n", u, r, u) + np.einsum("ni,ij,nj->n", v, r, v)


def isotropic_value(r, frame):
    """Isotropic curvature sum of an oriented frame,
    <R u, u> + <R v, v> with u = f1^f3 - f2^f4 and v = f1^f4 + f2^f3."""
    r = require_bianchi_valid(r)
    frame = check_frame(frame)
    return float(_pair_values(r, frame[None], 1.0)[0])


def _project_rotation(m):
    u, _, vt = np.linalg.svd(m)
    g = u @ vt
    if np.linalg.det(g) < 0.0:
        u[:, -1] = -u[:, -1]
        g = u @ vt
    return g


def min_isotropic(r, sign="+", samples=10000, seed=0, polish=True):
    """Minimum isotropic value over the frame manifold.

    Frames are sampled uniformly from SO(4) through pairs of Haar quaternions;
    the minus cone reuses the same frames composed with an orientation flip.
    The best sample is then refined by projected gradient descent along the
    three frame directions that actually rotate the relevant Hodge eigenspace,
    with backtracking step halving.  The result converges from above to twice
    the two-positivity margin of the matching Weyl-plus-scalar block.
    """
    r = require_bianchi_valid(r)
    _check_sign(sign)
    flip = 1.0 if sign == "+" else -1.0
    rng = np.random.default_rng(seed)
    n = int(samples)
    if n < 1:
        raise ValueError("samples must be positive")
    q1 = lambda2.haar_quaternions(rng, n)
    q2 = lambda2.haar_quaternions(rng, n)
    frames = lambda2._quat_to_rot_batch(q1, q2)
    vals = _pair_values(r, frames, flip)
    best = int(np.argmin(vals))
    f_best = float(vals[best])
    if not polish:
        return f_best
    return _polish_frame(r, frames[best], flip, f_best)


POLISH_STEPS = 200
_POLISH_H = 1e-6


def _polish_basis(sign):
    # The so(4) directions X_k that rotate the sign eigenspace, the only ones
    # that move the objective, and the probes I + h X_k, then I - h X_k.
    x = np.stack([lambda2.to_so4(w) for w in lambda2.selfdual_basis(sign)])
    return x, np.concatenate([np.eye(4) + _POLISH_H * x, np.eye(4) - _POLISH_H * x])


_POLISH_BASES = {1.0: _polish_basis("+"), -1.0: _polish_basis("-")}


def _polish_frame(r, g, flip, f0):
    # Projected descent on SO(4); each gradient is one stacked objective call.
    dirs, probes = _POLISH_BASES[flip]
    eye = np.eye(4)
    fval = f0
    step = 0.2
    for _ in range(POLISH_STEPS):
        v = _pair_values(r, g @ probes, flip)
        grad = (v[:3] - v[3:]) / (2.0 * _POLISH_H)
        gn = float(np.linalg.norm(grad))
        if gn < 1e-11 * (1.0 + abs(fval)):
            break
        direction = sum(c * x for c, x in zip(grad / gn, dirs))
        moved = False
        while step > 1e-12:
            trial = _project_rotation(g @ (eye - step * direction))
            ftrial = float(_pair_values(r, trial[None], flip)[0])
            if ftrial < fval - 1e-10 * step * gn:
                g = trial
                fval = ftrial
                moved = True
                step = min(step * 1.5, 0.5)
                break
            step *= 0.5
        if not moved:
            break
    return fval


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
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((int(samples), 3))
    b = rng.standard_normal((int(samples), 3))
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b - np.sum(b * a, axis=1, keepdims=True) * a
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    block = basis.T @ r @ basis
    vals = np.einsum("ni,ij,nj->n", a, block, a) + np.einsum("ni,ij,nj->n", b, block, b)
    return float(vals.min())
