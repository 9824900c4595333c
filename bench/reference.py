"""Input generation and the reference routes that the benchmark checks
halfpic's outputs against.

Everything here is computed from numpy and the fixed basis constants of
``halfpic.lambda2`` (the pair list, the Hodge star and the two eigenspace
bases).  No function calls a halfpic kernel, so a defect in the code under
test cannot hide behind a check that shares it.
"""

from __future__ import annotations

import numpy as np

BOUNDARY_BAND = 1e-9
ISO_ERR_TOL = 1e-4
PROBE_FLOOR = -1e-6
PROBE_START_CEILING = 1e-6 + 1e-9  # boundary seeds start at a margin <= 1e-6


class Basis:
    """The constants a reference needs, copied out of ``halfpic.lambda2``."""

    def __init__(self, lambda2):
        self.pair_i = np.array(lambda2.PAIR_I)
        self.pair_j = np.array(lambda2.PAIR_J)
        self.star = np.array(lambda2.HODGE_STAR, dtype=float)
        self.plus = np.array(lambda2.PLUS_BASIS, dtype=float)
        self.minus = np.array(lambda2.MINUS_BASIS, dtype=float)

    def block(self, r, sign):
        b = self.plus if sign == "+" else self.minus
        return b.T @ r @ b

    # -- input generation -------------------------------------------------

    def random_unit_bianchi(self, rng):
        """Unit-norm Gaussian sample of the Bianchi-valid subspace."""
        g = rng.standard_normal((6, 6))
        s = (g + g.T) / 2.0
        s = s - (np.trace(s @ self.star) / 6.0) * self.star
        return s / np.linalg.norm(s)

    def shift_to_two_positive(self, r, sign, target):
        """Shift along the identity so mu0 + mu1 of the sign block is target."""
        mu = np.linalg.eigvalsh(self.block(r, sign))
        return r + ((target - (mu[0] + mu[1])) / 2.0) * np.eye(6)

    def witness_eligible(self, rng):
        """Operator with scal > 0 and a negative projected self-dual margin.

        The plus block is scal/12 + W+, so mu0 + mu1 = scal/6 - w_top; the
        shift puts scal at 3 w_top, half-way inside the eligible window.
        """
        r = self.random_unit_bianchi(rng)
        w_top = self.weyl_top(r, "+")
        return r + ((3.0 * w_top - scalar(r)) / 12.0) * np.eye(6)

    # -- reference quantities ---------------------------------------------

    def weyl_top(self, r, sign):
        return float(np.linalg.eigvalsh(self.block(r, sign))[-1]) - scalar(r) / 12.0

    def two_positive(self, r, sign):
        mu = np.linalg.eigvalsh(self.block(r, sign))
        return float(mu[0] + mu[1])

    def margins(self, r):
        s = scalar(r)
        mp = s / 6.0 - self.weyl_top(r, "+")
        mm = s / 6.0 - self.weyl_top(r, "-")
        return {"scal": s, "ic_plus": mp, "ic_minus": mm, "ic": min(mp, mm)}

    def projection(self, r, factor):
        """scal/12 Id + B W B^T with B the basis of the Weyl block kept."""
        b = self.plus if factor == "left" else self.minus
        s = scalar(r)
        w = b.T @ r @ b - (s / 12.0) * np.eye(3)
        return (s / 12.0) * np.eye(6) + b @ w @ b.T

    def ricci0(self, r):
        """Traceless Ricci map through the 4-tensor of R."""
        t = np.zeros((4, 4, 4, 4))
        i, j = self.pair_i[:, None], self.pair_j[:, None]
        k, l = self.pair_i[None, :], self.pair_j[None, :]
        t[i, j, k, l] = r
        t[j, i, k, l] = -r
        t[i, j, l, k] = -r
        t[j, i, l, k] = r
        ric = np.einsum("aibi->ab", t)
        return ric - (scalar(r) / 4.0) * np.eye(4)

    def bianchi_defect(self, r):
        return abs(float(np.trace(r @ self.star))) / 2.0

    def cross_block(self, r):
        return self.plus.T @ r @ self.minus


def scalar(r):
    return 2.0 * float(np.trace(r))


def band(r):
    return BOUNDARY_BAND * (1.0 + float(np.linalg.norm(r)))


def close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def classify(mp, mm, tol):
    """Class label from the two half-cone margins and a boundary band."""
    inside_p, inside_m = mp > tol, mm > tol
    closed_p, closed_m = mp >= -tol, mm >= -tol
    if inside_p and inside_m:
        return "PIC"
    if closed_p and closed_m:
        return "NNIC"
    if inside_p:
        return "PIC+"
    if closed_p:
        return "NNIC+"
    if inside_m:
        return "PIC-"
    if closed_m:
        return "NNIC-"
    return "neither"


def model_ok(basis, name, s, r):
    """Whether r has the closed-form pattern of the named model operator."""
    tol = 1e-12 * (1.0 + abs(s))
    if basis.bianchi_defect(r) > tol or not close(r, r.T, tol):
        return False
    if name == "sphere":
        return close(r, (s / 12.0) * np.eye(6), tol)
    if name == "s3xr":
        return close(r, np.diag([s, s, 0.0, s, 0.0, 0.0]), tol)
    if name == "s2xs2":
        return close(r, np.diag([s, 0.0, 0.0, 0.0, 0.0, s]), tol)
    kaehler, flat = ("+", "-") if name in ("cp2", "kaehler_wplus") else ("-", "+")
    return (
        abs(scalar(r) - s) <= tol
        and close(np.linalg.eigvalsh(basis.block(r, kaehler)), [0.0, 0.0, s / 4.0], tol)
        and close(basis.block(r, flat), (s / 12.0) * np.eye(3), tol)
        and close(basis.cross_block(r), 0.0, tol)
    )
