"""Averaging over the double-cover factors of SO(4) and the boundary witness
construction for maximality of the half-isotropic cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cones, curvature, lambda2
from .curvature import act, assemble, decompose, require_bianchi_valid, scalar
from .lambda2 import PLUS_BASIS

LIFT_INPUT_TOL = 1e-10
LIFT_RESIDUAL_TOL = 1e-9
EIGENVALUE_TIE_TOL = 1e-10

FACTORS = ("left", "right")


def exact_projection(r, factor="left"):
    """Limit of the factor average: scalar part plus one Weyl block."""
    d = decompose(r)
    _check_factor(factor)
    if factor == "left":
        return assemble(scal=d.scal, wplus=d.wplus)
    return assemble(scal=d.scal, wminus=d.wminus)


# Left factor x -> x q^(-1) fixes the self-dual forms and rotates the
# anti-self-dual ones; right factor x -> q x does the opposite.
_FACTOR_TABLES = {"left": lambda2.S3_TABLES["-"], "right": lambda2.S3_TABLES["+"]}

# The binary tetrahedral group 2T: +-1, +-i, +-j, +-k and (+-1+-i+-j+-k)/2.
BINARY_TETRAHEDRAL = np.vstack(
    [np.eye(4), -np.eye(4), np.array(list(itertools.product([0.5, -0.5], repeat=4)))]
)


# The contraction order of _moment_average, planned once: the shapes are fixed.
_MOMENT_PATH = np.einsum_path(
    "pq,pki,kl,qlj->ij", np.ones((10, 10)), _FACTOR_TABLES["left"], np.ones((6, 6)),
    _FACTOR_TABLES["left"], optimize="greedy",
)[0]


def _moment_average(r, blocks, factor):
    # Mean of M(q)^T R M(q) over the rows q of an iterable of (m, 4) blocks,
    # through the Gram matrix G of their degree-two monomials, accumulated
    # block by block: sum_{P,Q} G_PQ C_P^T R C_Q, no per-row map.
    g = np.zeros((10, 10))
    rows = 0
    for q in blocks:
        q2 = lambda2._monomials(q)
        g += q2.T @ q2
        rows += len(q)
    g /= rows
    c = _FACTOR_TABLES[factor]
    return np.einsum("pq,pki,kl,qlj->ij", g, c, r, c, optimize=_MOMENT_PATH)


def _check_factor(factor):
    if factor not in FACTORS:
        raise ValueError(f"factor must be one of {FACTORS}, got {factor!r}")


def average(r, factor="left", n=10000, seed=0):
    """Monte-Carlo average of the pullback action over one S^3 factor.

    The left factor is the copy of S^3 acting trivially on self-dual forms,
    so its average converges to the scalar plus self-dual Weyl projection
    R_Id + R_W+ at the usual 1/sqrt(n) rate; the right factor converges to
    R_Id + R_W-.  Under the frozen quaternion conventions the left factor is
    realized by x -> x q^(-1) and the right factor by x -> q x.

    The mean over the n Haar samples is taken through their fourth moments:
    each sample contributes one row of ten quadratic monomials, and no
    per-sample rotation or induced map is formed.  The samples come in
    blocks of lambda2.HAAR_BLOCK rows, so the memory does not grow with n.
    """
    r = require_bianchi_valid(r)
    _check_factor(factor)
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    return _moment_average(r, lambda2.haar_blocks(rng, n), factor)


def group_average(r, factor="left"):
    """Exact average of the pullback action over one S^3 factor.

    The averaged action is a polynomial of degree four in q, and the 24
    quaternions of the binary tetrahedral group integrate it exactly, so this
    equals exact_projection up to rounding without using the Weyl blocks.
    """
    r = require_bianchi_valid(r)
    _check_factor(factor)
    return _moment_average(r, [BINARY_TETRAHEDRAL], factor)


def lift_selfdual_rotation(rho):
    """SO(4) element inducing a given rotation of the self-dual forms while
    fixing every anti-self-dual form.

    Extracts the half-angle quaternion of rho, refines it against the induced
    action, and maps it through the quaternion factor frozen in lambda2.  The
    quaternion representative with nonnegative first coordinate is used.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation, got shape {rho.shape}")
    if np.abs(rho.T @ rho - np.eye(3)).max() > LIFT_INPUT_TOL:
        raise ValueError("input is not orthogonal within tolerance")
    if abs(np.linalg.det(rho) - 1.0) > LIFT_INPUT_TOL:
        raise ValueError("input is orientation reversing, not a rotation")
    q = lambda2.rot3_to_quat(rho)
    for _ in range(3):
        resid = rho @ lambda2.rot3_of_quat(q).T
        if np.abs(resid - np.eye(3)).max() <= 1e-14:
            break
        q = lambda2.quat_mul(lambda2.rot3_to_quat(resid), q)
        q = q / np.linalg.norm(q)
    q = lambda2._canonical_quat_sign(q)
    g = lambda2.s3_plus(q)
    induced_plus = PLUS_BASIS.T @ lambda2.induced_map(g) @ PLUS_BASIS
    if np.abs(induced_plus - rho).max() > LIFT_RESIDUAL_TOL:
        raise ValueError("lift residual above tolerance after refinement")
    return g


@dataclass
class WitnessResult:
    """Boundary witness produced by maximality_witness."""

    witness: np.ndarray
    kappa: float
    scale: float
    g: np.ndarray

    def to_json(self):
        return {
            "witness": curvature.operator_to_json(self.witness),
            "kappa": float(self.kappa),
            "scale": float(self.scale),
            "g": [[float(x) for x in row] for row in self.g],
        }


def maximality_witness(r):
    """Average an inadmissible projected operator into the Kaehler pattern.

    Project R to its scalar plus self-dual Weyl part E, require positive
    scalar curvature and a two-positivity margin of the self-dual block of E
    below -cones.default_boundary_tol(E), the band membership uses.  Rotating
    the eigenframe of that block a quarter turn about its top eigenvector,
    lifted to SO(4) through lift_selfdual_rotation, and averaging E with its
    pullback doubles up the lowest eigenvalue; shifting by its absolute value
    kappa lands exactly on the boundary pattern of the Kaehler model:
    self-dual block spectrum (s/4, 0, 0) and anti-self-dual block (s/12) I
    for the resulting scalar curvature s.  scale is s/12, the ratio to the
    unit sphere-normalized model.

    When the two lowest eigenvalues already tie within tolerance the rotation
    is skipped and g is the identity.
    """
    d = decompose(r)
    if d.scal <= 0.0:
        raise ValueError(f"witness needs positive scalar curvature, got {d.scal:.3e}")
    e = assemble(scal=d.scal, wplus=d.wplus)
    block = curvature.plus_block(e)
    mu, vecs = np.linalg.eigh(block)
    if mu[0] + mu[1] >= -cones.default_boundary_tol(e):
        raise ValueError(
            "projected self-dual block is already two-nonnegative "
            f"(mu1+mu2 = {mu[0] + mu[1]:.3e}); nothing to witness"
        )
    if np.linalg.det(vecs) < 0.0:
        vecs = vecs.copy()
        vecs[:, 2] = -vecs[:, 2]
    scale_tie = EIGENVALUE_TIE_TOL * (1.0 + float(np.abs(mu).max()))
    if mu[1] - mu[0] <= scale_tie:
        g = np.eye(4)
        averaged = e
    else:
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rho = vecs @ quarter @ vecs.T
        g = lift_selfdual_rotation(rho)
        averaged = 0.5 * (e + act(g, e))
    kappa = -(mu[0] + mu[1]) / 2.0
    witness = averaged + kappa * np.eye(6)
    return WitnessResult(
        witness=witness,
        kappa=float(kappa),
        scale=scalar(witness) / 12.0,
        g=g,
    )
