"""The curvature ODE dR/dt = R^2 + R# and cone invariance experiments.

The sharp operator is defined through the quadratic form

    <R# eta, eta> = -1/2 sum_i <[eta, R([eta, R(w_i)])], w_i>

over any orthonormal bivector basis.  The production path contracts the
precomputed bracket structure constants; the literal bracket evaluation and
its polarization are kept alongside as the cross-check route and must agree
to near machine precision.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import cones, curvature, lambda2
from .curvature import check_operator, require_bianchi_valid
from .lambda2 import AD

TRAJECTORY_HEADER = "t,scal,margin_scal,margin_icplus,margin_icminus,margin_ic,norm"
BIANCHI_DRIFT_TOL = 1e-8


def sharp(r):
    """Sharp operator R#, symmetric 6x6 (structure-constant contraction)."""
    r = check_operator(r)
    return _sharp_raw(r[None])[0]


# AD[a] @ R for every a as one (36, 6) @ (6, 6) product
_AD_ROWS = AD.reshape(36, 6)


def _sharp_raw(r):
    """R# of each operator of an (n, 6, 6) stack; -1/2 and the symmetrizing
    1/2 are one exact scaling by -1/4."""
    t = np.matmul(_AD_ROWS, r).reshape(len(r), 6, 6, 6)
    s = np.einsum("naij,nbji->nab", t, t)
    return -0.25 * (s + s.mT)


def sharp_quadratic_form(r, eta):
    """Literal evaluation of the defining quadratic form at eta."""
    r = check_operator(r)
    total = 0.0
    for w in np.eye(6):
        inner = lambda2.bracket(eta, r @ w)
        outer = lambda2.bracket(eta, r @ inner)
        total += float(outer @ w)
    return -0.5 * total


def sharp_by_polarization(r):
    """Sharp operator assembled entry by entry from the quadratic form,
    <R# a, b> = (q(a+b) - q(a-b))/4.  Slow reference route for sharp."""
    r = check_operator(r)
    eye = np.eye(6)
    s = np.zeros((6, 6))
    for a in range(6):
        for b in range(a, 6):
            qp = sharp_quadratic_form(r, eye[:, a] + eye[:, b])
            qm = sharp_quadratic_form(r, eye[:, a] - eye[:, b])
            s[a, b] = s[b, a] = (qp - qm) / 4.0
    return s


def q_vf(r):
    """Right-hand side of the curvature ODE, Q(R) = R^2 + R#."""
    return _q_raw(require_bianchi_valid(r)[None])[0]


def _q_raw(r):
    """Q of an (n, 6, 6) stack."""
    return r @ r + _sharp_raw(r)


def bilinear_b(r, s):
    """Symmetric bilinear form with B(R, R) = Q(R), by polarization of Q."""
    r = require_bianchi_valid(r, name="R")
    s = require_bianchi_valid(s, name="S")
    q = _q_raw(np.stack([r + s, r, s]))
    return 0.5 * (q[0] - q[1] - q[2])


def default_dt(r0):
    """Fixed step heuristic, 1e-3 shrunk per unit of initial scalar curvature;
    one step per operator of a (..., 6, 6) stack."""
    return 1e-3 / np.maximum(1.0, np.abs(2.0 * np.trace(r0, axis1=-2, axis2=-1)))


@dataclass
class FlowParams:
    """Configuration of one ODE integration.

    dt=None picks default_dt at start time.  margin_cones are the cones
    tracked against margin_floor (all margins are always recorded);
    margin_floor=None disables that termination.
    """

    t_max: float = 0.1
    dt: float | None = None
    normalize: bool = False
    blowup_norm: float = 1e8
    margin_cones: tuple = cones.CONE_IDS
    margin_floor: float | None = None


@dataclass
class FlowTrajectory:
    """Samples of one integration, first sample at t=0."""

    t: np.ndarray
    operators: list
    scal: np.ndarray
    margins: dict
    norm: np.ndarray
    termination: str
    params: FlowParams

    def __len__(self):
        return len(self.t)


# The margin kernel, bound at module level so the RK4 core looks it up at call
# time and a self-test can plant a wrong one (bench/selftest.py).
_fast_margins = cones._margins

# trace(R HODGE_STAR) as one dot per flattened operator
_STAR_FLAT = lambda2.HODGE_STAR.T.ravel()


def _record(r, idx, params, sample):
    """Check one sample of the running trajectories and hand it to sample.

    Raises if an operator has drifted off the Bianchi subspace (drift
    3|star component| = |trace(R HODGE_STAR)|/2).  Returns the blowup mask
    and the mask of every early stop, blowup or a tracked margin under the
    floor.
    """
    m = _fast_margins(r)
    flat = r.reshape(len(r), 36)
    nrm = np.sqrt(np.vecdot(flat, flat))
    star_trace = flat @ _STAR_FLAT
    over = np.abs(star_trace) > (2.0 * BIANCHI_DRIFT_TOL) * (1.0 + nrm)
    if np.count_nonzero(over):
        drift = 0.5 * abs(star_trace[over][0])
        raise RuntimeError(f"Bianchi drift {drift:.3e} exceeded tolerance mid-flow")
    sample(idx, r, m, nrm)
    blowup = stop = nrm > params.blowup_norm
    if params.margin_floor is not None:
        for c in params.margin_cones:
            stop = stop | (m[c] < params.margin_floor)
    return blowup, stop


def _overflowed(r):
    """Mask of the operators with a non-finite entry, None when there is none."""
    if math.isfinite(np.vdot(r, r)):
        return None
    lost = ~np.isfinite(r).all(axis=(1, 2))
    return lost if lost.any() else None


def _step_factors(dt):
    """h, h/2 and h/6 for the running trajectories: scalars when they share
    one step, (m, 1, 1) columns otherwise."""
    h = dt[0] if (dt == dt[0]).all() else dt[:, None, None]
    return h, 0.5 * h, h / 6.0


def _rk4(r, params, sample):
    """Classical RK4 of dR/dt = Q(R) on a validated (n, 6, 6) stack.

    Each trajectory has its own fixed step (default_dt unless params.dt is
    set) and step count, and stops on its own.  sample(idx, r, m, nrm) gets
    the operators, margins and norms of the trajectories still running, idx
    their positions in the stack: at t=0 and after every step.  A step that
    overflows to a non-finite operator (numpy warns) ends its trajectory as
    a blowup and is not sampled.  Returns the termination and the step of
    each trajectory.
    """
    if not isinstance(params, FlowParams):
        raise TypeError("params must be a FlowParams")
    if params.t_max <= 0.0:
        raise ValueError("t_max must be positive")
    dt = default_dt(r) if params.dt is None else np.full(len(r), params.dt, dtype=float)
    if (dt <= 0.0).any():
        raise ValueError("dt must be positive")
    if (dt >= params.t_max).any():
        raise ValueError("dt must be smaller than t_max")
    for cone in params.margin_cones:
        cones._check_cone(cone)
    if params.normalize:
        scal0 = 2.0 * np.trace(r, axis1=-2, axis2=-1)
        if (scal0 <= 0.0).any():
            raise ValueError("normalization requires positive initial scalar curvature")

    n_steps = [int(x) for x in np.floor(params.t_max / dt + 1e-9)]
    steps, last = np.array(n_steps), min(n_steps)
    terminations = ["completed"] * len(r)
    idx = np.arange(len(r))
    _record(r, idx, params, sample)  # no stop at t=0
    h, half, sixth = _step_factors(dt)
    k = 0
    while True:
        k += 1
        k1 = _q_raw(r)
        k2 = _q_raw(r + half * k1)
        k3 = _q_raw(r + half * k2)
        k4 = _q_raw(r + h * k3)
        r = r + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lost = _overflowed(r)
        if lost is not None:
            for j in np.flatnonzero(lost):
                terminations[idx[j]] = "blowup"
            idx, r, steps = idx[~lost], r[~lost], steps[~lost]
            if not len(idx):
                return terminations, dt
        if params.normalize:
            s_now = 2.0 * np.trace(r, axis1=-2, axis2=-1)
            if np.count_nonzero(s_now <= 0.0):
                raise RuntimeError("scalar curvature became nonpositive under normalization")
            r = r * (scal0[idx] / s_now)[:, None, None]
        blowup, stop = _record(r, idx, params, sample)
        # after a loss, fall through to refresh the step factors and `last`
        if k < last and not np.count_nonzero(stop) and lost is None:
            continue
        done = stop | (steps == k)
        for j in np.flatnonzero(done):
            terminations[idx[j]] = (
                "blowup" if blowup[j] else "margin_violation" if stop[j] else "completed"
            )
        keep = ~done
        idx = idx[keep]
        if not len(idx):
            return terminations, dt
        r, steps = r[keep], steps[keep]
        h, half, sixth = _step_factors(dt[idx])
        last = int(steps.min())


def integrate(r0, params):
    """Classical RK4 integration of dR/dt = Q(R) with fixed step.

    Optionally rescales after every step to hold the scalar curvature at its
    initial value.  Terminates early on norm blowup or, when a floor is
    configured, when a tracked margin falls below it.  Every sample is
    re-verified Bianchi-valid within a drift tolerance.  The one-operator
    case of the stacked integrator that invariance_probe runs.
    """
    r = require_bianchi_valid(r0)[None]
    ops = []
    margins = {c: [] for c in cones.CONE_IDS}
    norms = []

    def sample(idx, rr, m, nrm):
        ops.append(rr[0].copy())
        for c in cones.CONE_IDS:
            margins[c].append(m[c].item(0))
        norms.append(nrm.item(0))

    (termination,), dt = _rk4(r, params, sample)
    return FlowTrajectory(
        t=np.arange(len(ops)) * dt[0],
        operators=ops,
        scal=np.array(margins["scal"]),
        margins={c: np.array(v) for c, v in margins.items()},
        norm=np.array(norms),
        termination=termination,
        params=params,
    )


def trajectory_csv(traj):
    """CSV text of a trajectory, one row per sample, 17 significant digits."""
    buf = io.StringIO()
    buf.write(TRAJECTORY_HEADER + "\n")
    for k in range(len(traj)):
        row = (
            traj.t[k],
            traj.scal[k],
            traj.margins["scal"][k],
            traj.margins["ic_plus"][k],
            traj.margins["ic_minus"][k],
            traj.margins["ic"][k],
            traj.norm[k],
        )
        buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return buf.getvalue()


def write_trajectory_csv(traj, path):
    with open(path, "w") as fh:
        fh.write(trajectory_csv(traj))


def trajectory_snapshots(traj):
    """Operator snapshots as a JSON-ready list of {t, basis, matrix}."""
    out = []
    for k in range(len(traj)):
        doc = curvature.operator_to_json(traj.operators[k])
        doc = {"t": float(traj.t[k]), **doc}
        out.append(doc)
    return out


@dataclass
class ProbeReport:
    """Outcome of an invariance probe over one cone."""

    cone: str
    n: int
    seed: int
    boundary_fraction: float
    min_margin: float
    min_margin_normalized: float
    worst_index: int
    worst_seed: tuple
    trajectory_minima: np.ndarray = field(repr=False)
    terminations: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "cone": self.cone,
            "n": self.n,
            "seed": self.seed,
            "boundary_fraction": self.boundary_fraction,
            "min_margin": self.min_margin,
            "min_margin_normalized": self.min_margin_normalized,
            "worst_index": self.worst_index,
            "worst_seed": list(self.worst_seed),
            "terminations": dict(self.terminations),
        }


def invariance_probe(
    cone,
    n=100,
    seed=0,
    params=None,
    boundary_fraction=0.5,
    margin_low=0.0,
    margin_high=0.5,
):
    """Integrate n random in-cone operators and report the worst margin.

    Seeds are unit-norm Gaussian samples of the Bianchi space shifted along
    the identity to a prescribed start margin: a boundary_fraction of them
    sit at margin in [0, 1e-6], the rest uniformly in [margin_low,
    margin_high].  Negative bounds are allowed on purpose so the harness can
    demonstrate that escapes are detected.  Trajectory k is driven by the
    substream (seed, k), so reports are reproducible per sample.  All n
    seeds run as one stacked integration, with the same numbers as n
    separate integrate calls; only running minima are kept.
    """
    cones._check_cone(cone)
    if not 0.0 <= boundary_fraction <= 1.0:
        raise ValueError("boundary_fraction must lie in [0, 1]")
    if params is None:
        params = FlowParams(t_max=0.05, dt=None, normalize=False)
    n = int(n)
    n_boundary = int(round(boundary_fraction * n))
    seeds = []
    for k in range(n):
        rng = np.random.default_rng((seed, k))
        r0 = curvature.random_bianchi(rng, norm=1.0)
        if k < n_boundary:
            target = rng.uniform(0.0, 1e-6)
        else:
            target = rng.uniform(margin_low, margin_high)
        seeds.append(cones.shift_to_margin(r0, cone, target))
    minima = np.full(n, np.inf)
    minima_norm = np.full(n, np.inf)

    def sample(idx, r, m, nrm):
        vals = m[cone]
        minima[idx] = np.minimum(minima[idx], vals)
        minima_norm[idx] = np.minimum(minima_norm[idx], vals / (1.0 + nrm))

    ends, _ = _rk4(np.stack(seeds), params, sample)
    worst = int(np.argmin(minima_norm))
    return ProbeReport(
        cone=cone,
        n=n,
        seed=seed,
        boundary_fraction=boundary_fraction,
        min_margin=float(minima.min()),
        min_margin_normalized=float(minima_norm.min()),
        worst_index=worst,
        worst_seed=(seed, worst),
        trajectory_minima=minima,
        terminations=dict(Counter(ends)),
    )
