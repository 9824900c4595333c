"""Exterior algebra of R^4: bivectors, the Hodge splitting, so(4), and the
quaternionic double cover of SO(4).

Bivectors are plain 6-vectors in the ordered orthonormal basis

    (e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4),

rotations are 4x4 arrays acting on column vectors, quaternions are 4-vectors
(w, x, y, z) under the identification (x, y, z, t) <-> x + iy + jz + kt.
"""

from __future__ import annotations

import numpy as np

# Index pairs (i, j), i < j, of the bivector basis e_i ^ e_j.
PAIR_I = np.array([0, 0, 0, 1, 1, 2])
PAIR_J = np.array([1, 2, 3, 2, 3, 3])

BASIS_LABELS = ("e12", "e13", "e14", "e23", "e24", "e34")

ORTHOGONALITY_TOL = 1e-12
UNIT_QUATERNION_TOL = 1e-12


def _as_vector(v, dim, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{name} must be a {dim}-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def wedge(u, v):
    """Wedge product of two 4-vectors as a bivector 6-vector."""
    return _wedge(_as_vector(u, 4, "u"), _as_vector(v, 4, "v"))


def _wedge(u, v):
    # (..., 4), (..., 4) -> (..., 6)
    return u[..., PAIR_I] * v[..., PAIR_J] - u[..., PAIR_J] * v[..., PAIR_I]


def _wedge_maps(a, b):
    # (..., 4, 4), (..., 4, 4) -> (..., 6, 6), the matrix sending each basis
    # bivector e_i^e_j to a e_i ^ b e_j; rows and columns follow the pair list.
    k = PAIR_I[:, None]
    l = PAIR_J[:, None]
    i = PAIR_I[None, :]
    j = PAIR_J[None, :]
    return a[..., k, i] * b[..., l, j] - a[..., l, i] * b[..., k, j]


def _build_hodge_star():
    # e12 <-> e34, e14 <-> e23, e13 <-> -e24.
    s = np.zeros((6, 6))
    s[0, 5] = s[5, 0] = 1.0
    s[2, 3] = s[3, 2] = 1.0
    s[1, 4] = s[4, 1] = -1.0
    return s


HODGE_STAR = _build_hodge_star()
P_PLUS = (np.eye(6) + HODGE_STAR) / 2.0
P_MINUS = (np.eye(6) - HODGE_STAR) / 2.0

_SQ2 = np.sqrt(2.0)

# Columns are the orthonormal self-dual / anti-self-dual bases:
#   w1+- = (e12 +- e34)/sqrt2, w2+- = (e13 -+ e24)/sqrt2, w3+- = (e14 +- e23)/sqrt2.
PLUS_BASIS = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0],
    ]
) / _SQ2
MINUS_BASIS = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
    ]
) / _SQ2


def to_so4(b):
    """Skew 4x4 matrix of a bivector, x^y acting as u -> <x,u>y - <y,u>x."""
    return _so4(_as_vector(b, 6, "b"))


def _so4(b):
    # (..., 6) -> (..., 4, 4), the skew matrices of a stack of bivectors
    m = np.zeros(b.shape[:-1] + (4, 4))
    m[..., PAIR_J, PAIR_I] = b
    m[..., PAIR_I, PAIR_J] = -b
    return m


def from_so4(m):
    """Inverse of to_so4; rejects matrices that are not skew-symmetric."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max()
    if np.abs(m + m.T).max() > ORTHOGONALITY_TOL * scale:
        raise ValueError("matrix is not skew-symmetric")
    return m[PAIR_J, PAIR_I].copy()


def bracket(a, b):
    """Lie bracket of bivectors through the so(4) matrix commutator."""
    return _bracket(_as_vector(a, 6, "a"), _as_vector(b, 6, "b"))


def _bracket(a, b):
    # (..., 6), (..., 6) -> (..., 6), the commutator of two broadcast stacks
    # in so(4), one 4x4 product per pair.  Entries (i, j) of AB and (j, i) of
    # BA sum the same products in the same order, so the commutator is skew
    # to the last bit and is read off without from_so4's check.
    ma = _so4(a)
    mb = _so4(b)
    c = ma @ mb - mb @ ma
    return c[..., PAIR_J, PAIR_I]


def _build_ad():
    # AD[a][:, j] = [basis_a, basis_j], all 36 brackets as one stack
    eye = np.eye(6)
    return _bracket(eye[:, None], eye[None]).transpose(0, 2, 1).copy()


# AD[a] is the matrix of ad(basis_a) acting on bivectors, built once from the
# commutator so the structure constants cannot drift from bracket().
AD = _build_ad()


def check_rotation(g, name="g"):
    """Validate a 4x4 orthogonal matrix (det -1 allowed), return as array."""
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} has non-finite entries")
    if np.abs(g.T @ g - np.eye(4)).max() > ORTHOGONALITY_TOL:
        raise ValueError(f"{name} is not orthogonal within {ORTHOGONALITY_TOL:g}")
    return g


def induced_map(g):
    """The 6x6 action of an orthogonal g on bivectors, x^y -> gx^gy."""
    g = check_rotation(g)
    return _induced_map_batch(g[None])[0]


def _induced_map_batch(g):
    # (n, 4, 4) -> (n, 6, 6)
    return _wedge_maps(g, g)


def quat_mul(p, q):
    """Hamilton product of quaternions (w, x, y, z)."""
    p = _as_vector(p, 4, "p")
    q = _as_vector(q, 4, "q")
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])

# Quaternion multiplication as 4x4 matrices: _left_mul(q) @ p = q p and
# _right_mul(q) @ p = p q.  Entry (a, b) is a sign times q[_MUL_INDEX[a, b]].
_MUL_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0],
                       [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])
_RIGHT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])


def _left_mul(q):
    # (..., 4) -> (..., 4, 4)
    return q[..., _MUL_INDEX] * _LEFT_SIGN


def _right_mul(q):
    # (..., 4) -> (..., 4, 4)
    return q[..., _MUL_INDEX] * _RIGHT_SIGN


def quat_conj(q):
    return _as_vector(q, 4, "q") * _CONJ


def _check_unit_quaternion(q, name):
    q = _as_vector(q, 4, name)
    if abs(np.linalg.norm(q) - 1.0) > UNIT_QUATERNION_TOL:
        raise ValueError(f"{name} is not a unit quaternion")
    return q


QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def quat_to_rot(q1, q2):
    """Rotation x -> q1 x q2^(-1) of R^4 = H for unit quaternions q1, q2.

    Columns are the images of the standard basis (1, i, j, k).  Reference
    route for the batched _quat_to_rot_batch.
    """
    q1 = _check_unit_quaternion(q1, "q1")
    q2 = _check_unit_quaternion(q2, "q2")
    q2c = quat_conj(q2)
    cols = [quat_mul(quat_mul(q1, e), q2c) for e in np.eye(4)]
    return np.column_stack(cols)


def _quat_to_rot_batch(q1, q2):
    # (n, 4), (n, 4) -> (n, 4, 4), the batch of quat_to_rot
    return _left_mul(q1) @ _right_mul(q2 * _CONJ)


# Frozen factor assignment, validated by the build-time tests against
# induced_map: with the star convention above, x -> q x rotates the self-dual
# forms and fixes every anti-self-dual form, while x -> x q^(-1) does the
# opposite.  The subgroup names follow the eigenspace each factor rotates.


def s3_plus(q):
    """Rotation acting irreducibly on the self-dual forms, trivially on the
    anti-self-dual ones (left multiplication x -> qx)."""
    return quat_to_rot(q, QUAT_ONE)


def s3_minus(q):
    """Rotation acting trivially on the self-dual forms, irreducibly on the
    anti-self-dual ones (right multiplication x -> x q^(-1))."""
    return quat_to_rot(QUAT_ONE, q)


# Degree-two monomials q_a q_b (a <= b) of a quaternion, in triu order.
_MONO_A, _MONO_B = np.triu_indices(4)


def _monomials(q):
    # (n, 4) -> (10, n), with contiguous rows when q is component-major
    qt = q.T
    m = qt[_MONO_A]
    m *= qt[_MONO_B]
    return m


def _quadratic_tables(basis_rots):
    # A rotation linear in q, g(q) = sum_a q_a B_a, has an induced map
    # quadratic in q: M(q) = sum_{a<=b} q_a q_b C_ab with C_aa = W(B_a, B_a)
    # and C_ab = W(B_a, B_b) + W(B_b, B_a) for a < b, where W is the wedge of
    # maps.  (4, 4, 4) -> (10, 6, 6).
    w = _wedge_maps(basis_rots[:, None], basis_rots[None, :])
    both = w + w.swapaxes(0, 1)
    diag = (_MONO_A == _MONO_B)[:, None, None]
    return np.where(diag, w[_MONO_A, _MONO_B], both[_MONO_A, _MONO_B])


# The tables of the two factors, by the Hodge eigenspace each one rotates:
# x -> q x for "+" (s3_plus) and x -> x q^(-1) for "-" (s3_minus).
S3_TABLES = {
    "+": _quadratic_tables(_left_mul(np.eye(4))),
    "-": _quadratic_tables(_right_mul(np.eye(4) * _CONJ)),
}


def haar_quaternion(rng):
    """One Haar-uniform unit quaternion (normalized 4d Gaussian, no rejection).

    The one-draw reference for the stream order of haar_quaternions: n calls
    consume the generator exactly like one batch of n (the values may differ
    in the last ulp, since the batch normalizes rows of a stacked draw).
    """
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def _unit_rows(v):
    # The rows of an (n, 4) array divided by their norms, bit for bit as
    # v / np.linalg.norm(v, axis=1, keepdims=True): numpy reduces a 4-term
    # row in this sequential order, and every step here is elementwise, so a
    # row's bits depend neither on the rows stacked with it nor on the
    # layout, which the output keeps.
    vt = v.T
    x = vt * vt
    s = x[0] + x[1]
    s += x[2]
    s += x[3]
    return (vt / np.sqrt(s)).T


def haar_quaternions(rng, n):
    """n Haar-uniform unit quaternions, rows of an (n, 4) array stored
    component-major, so q.T is C-contiguous.

    The raw draw rng.standard_normal((n, 4)) with each row normalized, so it
    consumes the generator stream exactly like n successive calls of
    haar_quaternion, and a row normalized alone has the bits it has in the
    batch.
    """
    return _unit_rows(_gaussian_rows(rng, n))


def _gaussian_rows(rng, n):
    # The raw draw of haar_quaternions: n rows of 4 standard normals, stored
    # component-major.
    return np.asfortranarray(rng.standard_normal((int(n), 4)))


# Rows per block of haar_blocks and of the frame sampler's raw draws: the
# (10, HAAR_BLOCK) monomials of a factor-average block take 80 KiB, under
# glibc's 128 KiB mmap threshold, so a blocked consumer reuses heap memory
# instead of faulting fresh pages in on every call.
HAAR_BLOCK = 1024


def haar_blocks(rng, n):
    """The rows of haar_quaternions(rng, n) in consecutive blocks of
    HAAR_BLOCK rows (the last one may be shorter), each one haar_quaternions
    call, so the blocks concatenate to the one-batch draw bit for bit and
    leave the generator where the one batch leaves it."""
    n = int(n)
    for start in range(0, n, HAAR_BLOCK):
        yield haar_quaternions(rng, min(HAAR_BLOCK, n - start))


def rot3_of_quat(q):
    """Standard SO(3) matrix of v -> q v q^(-1) on the imaginary part (x,y,z)."""
    q = _check_unit_quaternion(q, "q")
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
