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
from dataclasses import dataclass, field

import numpy as np

from . import cones, curvature, lambda2
from .curvature import check_operator, require_bianchi_valid, scalar
from .lambda2 import AD

TRAJECTORY_HEADER = "t,scal,margin_scal,margin_icplus,margin_icminus,margin_ic,norm"
BIANCHI_DRIFT_TOL = 1e-8


def sharp(r):
    """Sharp operator R#, symmetric 6x6 (structure-constant contraction)."""
    r = check_operator(r)
    return _sharp_raw(r)


def _sharp_raw(r):
    t = np.matmul(AD, r)
    s = -0.5 * np.einsum("aij,bji->ab", t, t)
    return (s + s.T) / 2.0


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
    return _q_raw(require_bianchi_valid(r))


def _q_raw(r):
    return r @ r + _sharp_raw(r)


def bilinear_b(r, s):
    """Symmetric bilinear form with B(R, R) = Q(R), by polarization of Q."""
    r = require_bianchi_valid(r, name="R")
    s = require_bianchi_valid(s, name="S")
    return 0.5 * (_q_raw(r + s) - _q_raw(r) - _q_raw(s))


def default_dt(r0):
    """Fixed step heuristic, 1e-3 shrunk per unit of initial scalar curvature."""
    return 1e-3 / max(1.0, abs(scalar(r0)))


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


# The margin kernel, bound at module level so integrate looks it up at call
# time and a self-test can plant a wrong one (bench/selftest.py).
_fast_margins = cones._margins


def integrate(r0, params):
    """Classical RK4 integration of dR/dt = Q(R) with fixed step.

    Optionally rescales after every step to hold the scalar curvature at its
    initial value.  Terminates early on norm blowup or, when a floor is
    configured, when a tracked margin falls below it.  Every sample is
    re-verified Bianchi-valid within a drift tolerance.
    """
    r = require_bianchi_valid(r0).copy()
    if not isinstance(params, FlowParams):
        raise TypeError("params must be a FlowParams")
    if params.t_max <= 0.0:
        raise ValueError("t_max must be positive")
    dt = params.dt if params.dt is not None else default_dt(r)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt >= params.t_max:
        raise ValueError("dt must be smaller than t_max")
    for cone in params.margin_cones:
        cones._check_cone(cone)
    scal0 = scalar(r)
    if params.normalize and scal0 <= 0.0:
        raise ValueError("normalization requires positive initial scalar curvature")

    n_steps = int(np.floor(params.t_max / dt + 1e-9))
    ts = [0.0]
    ops = [r]
    margins = {c: [] for c in cones.CONE_IDS}
    norms = []
    scals = []

    def record(rr):
        m = {c: float(v) for c, v in _fast_margins(rr).items()}  # floats, not 0-d views
        for c in cones.CONE_IDS:
            margins[c].append(m[c])
        nrm = float(np.linalg.norm(rr))
        norms.append(nrm)
        scals.append(m["scal"])
        drift = 3.0 * abs(curvature.star_component(rr))
        if drift > BIANCHI_DRIFT_TOL * (1.0 + nrm):
            raise RuntimeError(f"Bianchi drift {drift:.3e} exceeded tolerance mid-flow")
        return m, nrm

    m, nrm = record(r)
    termination = "completed"
    for k in range(1, n_steps + 1):
        k1 = _q_raw(r)
        k2 = _q_raw(r + 0.5 * dt * k1)
        k3 = _q_raw(r + 0.5 * dt * k2)
        k4 = _q_raw(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if params.normalize:
            s_now = 2.0 * float(np.trace(r))
            if s_now <= 0.0:
                raise RuntimeError("scalar curvature became nonpositive under normalization")
            r = r * (scal0 / s_now)
        ts.append(k * dt)
        ops.append(r)
        m, nrm = record(r)
        if nrm > params.blowup_norm:
            termination = "blowup"
            break
        if params.margin_floor is not None and any(
            m[c] < params.margin_floor for c in params.margin_cones
        ):
            termination = "margin_violation"
            break

    return FlowTrajectory(
        t=np.array(ts),
        operators=ops,
        scal=np.array(scals),
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
    substream (seed, k), so reports are reproducible per sample.
    """
    cones._check_cone(cone)
    if not 0.0 <= boundary_fraction <= 1.0:
        raise ValueError("boundary_fraction must lie in [0, 1]")
    if params is None:
        params = FlowParams(t_max=0.05, dt=None, normalize=False)
    n = int(n)
    n_boundary = int(round(boundary_fraction * n))
    minima = np.empty(n)
    minima_norm = np.empty(n)
    terminations = {}
    for k in range(n):
        rng = np.random.default_rng((seed, k))
        r0 = curvature.random_bianchi(rng, norm=1.0)
        if k < n_boundary:
            target = rng.uniform(0.0, 1e-6)
        else:
            target = rng.uniform(margin_low, margin_high)
        r0 = cones.shift_to_margin(r0, cone, target)
        traj = integrate(r0, params)
        vals = traj.margins[cone]
        minima[k] = vals.min()
        minima_norm[k] = (vals / (1.0 + traj.norm)).min()
        terminations[traj.termination] = terminations.get(traj.termination, 0) + 1
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
        terminations=terminations,
    )
