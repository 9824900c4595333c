"""Algebraic curvature operators on R^4.

An operator is a symmetric 6x6 array acting on bivectors.  The first Bianchi
identity singles out a 20-dimensional subspace of the 21-dimensional symmetric
matrices; its orthogonal complement is spanned by the Hodge star, which gives
both the validity test and the projector used here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import lambda2
from .lambda2 import HODGE_STAR, MINUS_BASIS, PAIR_I, PAIR_J, PLUS_BASIS

BASIS_STRING = "e12,e13,e14,e23,e24,e34"

SYMMETRY_TOL = 1e-12
BIANCHI_TOL = 1e-10
TRACELESS_TOL = 1e-10

MODEL_NAMES = ("sphere", "cp2", "cp2bar", "s3xr", "s2xs2", "kaehler_wplus")


class OperatorFormatError(ValueError):
    """Raised when an operator payload fails structural validation."""


def check_operator(r, name="R"):
    """Validate a symmetric 6x6 operator; returns it as a float array."""
    r = np.asarray(r, dtype=float)
    if r.shape != (6, 6):
        raise OperatorFormatError(f"{name} must be 6x6, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise OperatorFormatError(f"{name} has non-finite entries")
    scale = 1.0 + np.abs(r).max()
    if np.abs(r - r.T).max() > SYMMETRY_TOL * scale:
        raise OperatorFormatError(f"{name} is not symmetric within {SYMMETRY_TOL:g}")
    return r


def _as_tensor(r):
    # (6,6) -> (4,4,4,4) with T[i,j,k,l] = <R(e_i^e_j), e_k^e_l>.
    t = np.zeros((4, 4, 4, 4))
    i = PAIR_I[:, None]
    j = PAIR_J[:, None]
    k = PAIR_I[None, :]
    l = PAIR_J[None, :]
    t[i, j, k, l] = r
    t[j, i, k, l] = -r
    t[i, j, l, k] = -r
    t[j, i, l, k] = r
    return t


def bianchi_defect(r):
    """Largest cyclic first-Bianchi sum over all basis 4-tuples.  Reference
    route: the validity test uses the equal star trace 3 |star_component|."""
    t = _as_tensor(check_operator(r))
    cyc = t + np.transpose(t, (2, 0, 1, 3)) + np.transpose(t, (1, 2, 0, 3))
    return float(np.abs(cyc).max())


def star_component(r):
    """Coefficient of the Hodge star in the orthogonal split of a symmetric
    operator; zero exactly on the Bianchi-valid subspace."""
    return float(np.trace(r @ HODGE_STAR)) / 6.0


def bianchi_project(r):
    """Orthogonal projection onto the Bianchi-valid operators."""
    r = check_operator(r)
    return r - star_component(r) * HODGE_STAR


def _norm(x):
    # np.linalg.norm(x), bit for bit wherever its sum of squares neither
    # overflows nor underflows, which max|x| decides before the plain norm
    # can warn; elsewhere x is first scaled by 2^-e, with e the binary
    # exponent of max|x|, which is exact, and the norm scaled back.
    m = np.abs(x).max()
    if 1e-150 < m < 1e150:
        return np.linalg.norm(x)
    e = np.frexp(m)[1]
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)


def require_bianchi_valid(r, name="R"):
    """check_operator, then a star-trace defect within BIANCHI_TOL (1 + |R|)."""
    r = check_operator(r, name=name)
    defect, bound = 3.0 * abs(star_component(r)), BIANCHI_TOL * (1.0 + _norm(r))
    if defect > bound:
        raise OperatorFormatError(
            f"{name} violates the first Bianchi identity (defect {defect:.3e} > {bound:.3e})"
        )
    return r


def scalar(r):
    """Scalar curvature, twice the bivector trace."""
    return 2.0 * float(np.trace(check_operator(r)))


def _ricci(r):
    # Ricci morphism of a checked operator, <ric(x), y> = sum_i <R(x^e_i), y^e_i>.
    return np.einsum("aibi->ab", _as_tensor(r))


def wedge_sym(a, b):
    """Symmetrized wedge of two symmetric 4x4 maps,
    (A^B)(x^y) = (Ax^By + Bx^Ay)/2, as an operator on bivectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (4, 4) or b.shape != (4, 4):
        raise ValueError("wedge_sym expects 4x4 arrays")
    return 0.5 * (lambda2._wedge_maps(a, b) + lambda2._wedge_maps(b, a))


def plus_block(r):
    """3x3 block of an operator on the self-dual forms, in the w+ basis."""
    return PLUS_BASIS.T @ np.asarray(r, dtype=float) @ PLUS_BASIS


def minus_block(r):
    return MINUS_BASIS.T @ np.asarray(r, dtype=float) @ MINUS_BASIS


@dataclass
class Decomposition:
    """Irreducible pieces of a curvature operator: scalar part, traceless
    Ricci part, and the two Weyl blocks in the w+- bases (dims 1+9+5+5)."""

    scal: float
    ric0: np.ndarray
    wplus: np.ndarray
    wminus: np.ndarray


def decompose(r):
    """Split a Bianchi-valid operator into its irreducible components."""
    r = require_bianchi_valid(r)
    scal = 2.0 * float(np.trace(r))
    ric0 = _ricci(r) - (scal / 4.0) * np.eye(4)
    wplus = plus_block(r) - (scal / 12.0) * np.eye(3)
    wminus = minus_block(r) - (scal / 12.0) * np.eye(3)
    return Decomposition(scal=scal, ric0=ric0, wplus=wplus, wminus=wminus)


def _check_traceless_sym(m, dim, name):
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max()
    if np.abs(m - m.T).max() > TRACELESS_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    if abs(np.trace(m)) > TRACELESS_TOL * scale:
        raise ValueError(f"{name} must be traceless")
    return m


def recompose(d):
    """Rebuild the operator from a Decomposition; inverse of decompose."""
    return assemble(d.scal, d.ric0, d.wplus, d.wminus)


def assemble(scal=0.0, ric0=None, wplus=None, wminus=None):
    """Operator with the given irreducible parts (omitted parts are zero)."""
    r = (float(scal) / 12.0) * np.eye(6)
    if ric0 is not None:
        ric0 = _check_traceless_sym(ric0, 4, "ric0")
        r = r + wedge_sym(ric0, np.eye(4))
    if wplus is not None:
        wplus = _check_traceless_sym(wplus, 3, "wplus")
        r = r + PLUS_BASIS @ wplus @ PLUS_BASIS.T
    if wminus is not None:
        wminus = _check_traceless_sym(wminus, 3, "wminus")
        r = r + MINUS_BASIS @ wminus @ MINUS_BASIS.T
    return r


def act(g, r):
    """Pullback action of an orthogonal g,
    <(g.R)(x^y), z^t> = <R(gx^gy), gz^gt>."""
    m = lambda2.induced_map(g)
    return m.T @ check_operator(r) @ m


def _act_average(ms, r):
    # mean over n of M^T R M for a stack of induced maps, (n,6,6) -> (6,6).
    # Reference route of group_actions.average, which takes the same mean
    # through the samples' fourth moments; only the tests call it.
    t = np.einsum("jk,nkl->njl", r, ms)
    return np.einsum("nji,njl->il", ms, t) / ms.shape[0]


def model(name, scale=12.0):
    """Reference curvature operators.

    scale is the scalar curvature for sphere, cp2, cp2bar and kaehler_wplus,
    and the inverse squared radius for s3xr and s2xs2.
    """
    scale = float(scale)
    if name == "sphere":
        return (scale / 12.0) * np.eye(6)
    if name == "cp2" or name == "kaehler_wplus":
        # Kaehler pattern on the self-dual side: W+ spectrum
        # (scale/6, -scale/12, -scale/12), Einstein, W- = 0.  The two names
        # coincide as matrices; cp2 keeps the geometric label.
        w = np.diag([scale / 6.0, -scale / 12.0, -scale / 12.0])
        return assemble(scal=scale, wplus=w)
    if name == "cp2bar":
        w = np.diag([scale / 6.0, -scale / 12.0, -scale / 12.0])
        return assemble(scal=scale, wminus=w)
    if name == "s3xr":
        return np.diag([scale, scale, 0.0, scale, 0.0, 0.0])
    if name == "s2xs2":
        return np.diag([scale, 0.0, 0.0, 0.0, 0.0, scale])
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def random_bianchi(rng, norm=None):
    """Gaussian sample on the 20-dimensional Bianchi-valid subspace."""
    g = rng.standard_normal((6, 6))
    r = bianchi_project((g + g.T) / 2.0)
    if norm is not None:
        r = r * (float(norm) / np.linalg.norm(r))
    return r


def operator_to_json(r):
    """JSON payload for an operator, with the basis recorded explicitly."""
    r = check_operator(r)
    return {"basis": BASIS_STRING, "matrix": [[float(x) for x in row] for row in r]}


def operator_from_json(obj):
    """Parse and validate an operator payload produced by operator_to_json."""
    if not isinstance(obj, dict):
        raise OperatorFormatError("operator payload must be a JSON object")
    if obj.get("basis") != BASIS_STRING:
        raise OperatorFormatError(
            f"operator basis mismatch: expected {BASIS_STRING!r}, got {obj.get('basis')!r}"
        )
    matrix = obj.get("matrix")
    if not _json_numbers(matrix):
        raise OperatorFormatError("operator matrix is not numeric: an entry is not a JSON number")
    try:
        r = np.asarray(matrix, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise OperatorFormatError(f"operator matrix is not numeric: {exc}") from exc
    return check_operator(r, name="operator matrix")


def _json_numbers(x):
    # True when every leaf of the nested lists x is a JSON int or float; a
    # string, a bool or null is not a number
    if isinstance(x, list):
        return all(_json_numbers(v) for v in x)
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def write_operator(r, path):
    with open(path, "w") as fh:
        json.dump(operator_to_json(r), fh, indent=2)
        fh.write("\n")


def read_operator(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise OperatorFormatError(f"malformed JSON in {path}: {exc}") from exc
    return operator_from_json(obj)
