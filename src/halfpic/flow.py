"""The curvature ODE dR/dt = R^2 + R# and cone invariance experiments.

The sharp operator is defined through the quadratic form

    <R# eta, eta> = -1/2 sum_i <[eta, R([eta, R(w_i)])], w_i>

over any orthonormal bivector basis, that is R#_ab = -1/2 tr(ad_a R ad_b R)
symmetrized.  The production path works on the 21 upper-triangle
coordinates of a symmetric operator: R# and Q = R^2 + R# are quadratic in
them, so each is one structure-constant table, built from lambda2.AD at
import, and one kernel evaluates either table on a stack as two matrix
products.  The RK4 core runs on these coordinates and expands to 6x6
operators once per record block.  The literal bracket evaluation and its
polarization are kept alongside as the cross-check route and must agree to
near machine precision.
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

# The upper-triangle coordinates of a symmetric operator: entry (i, j), i <= j,
# in np.triu_indices order, at flat position _TRIU_FLAT of the 6x6 matrix.
# _FULL[6 i + j] is the coordinate of entry (i, j), so one gather through it
# expands coordinates back to 6x6 operators, and _DIAG holds the coordinates
# of the diagonal.
_TRIU = np.triu_indices(6)
_TRIU_FLAT = np.ravel_multi_index(_TRIU, (6, 6))
_FULL = np.empty((6, 6), dtype=np.intp)
_FULL[_TRIU] = _FULL[_TRIU[::-1]] = np.arange(21)
_DIAG = np.diagonal(_FULL).copy()
_FULL = _FULL.ravel()

# Both gathers use np.take, which returns C-contiguous rows: fancy indexing
# on the last axis of a stack returns strided rows, and np.vecdot in _record
# sums a strided row in another order than the same row alone.


def _coords(r):
    """(..., 6, 6) operators -> (..., 21) upper-triangle coordinates."""
    return np.take(r.reshape(*r.shape[:-2], 36), _TRIU_FLAT, axis=-1)


def _expand(y):
    """(..., 21) coordinates -> (..., 6, 6) symmetric operators."""
    return np.take(y, _FULL, axis=-1).reshape(*y.shape[:-1], 6, 6)


def _quadratic_tables():
    """The (21, 441) tables of R# and of Q = R^2 + R#.

    A quadratic map F of symmetric operators is F(R)_k = sum_pq B(E_p, E_q)_k
    y_p y_q, with y the coordinates of R, E_p the symmetric basis matrix of
    coordinate p and B the symmetric bilinear form with B(R, R) = F(R).  Row
    p, column 21 k + q of a table holds B(E_p, E_q)_k.  For R#,
    B(R, S)_ab = -1/4 (tr(AD_a R AD_b S) + tr(AD_b R AD_a S)); Q adds
    (RS + SR)/2.  Every entry is 0, +-1/2 or +-1, exact in floating point.
    """
    e = np.zeros((21, 6, 6))
    p = np.arange(21)
    e[p, _TRIU[0], _TRIU[1]] = e[p, _TRIU[1], _TRIU[0]] = 1.0
    ad_e = (AD[:, None] @ e).reshape(126, 6, 6)  # AD_a E_p at 21 a + p
    # tr(AD_a E_p AD_b E_q) = sum_ij (AD_a E_p)_ij (AD_b E_q)_ji at (a, b, p, q)
    t = ad_e.reshape(126, 36) @ ad_e.mT.reshape(126, 36).T
    t = t.reshape(6, 21, 6, 21).transpose(0, 2, 1, 3)
    sharp = -0.25 * (t + t.transpose(1, 0, 2, 3))
    ee = e[:, None] @ e  # E_p E_q at (p, q)
    square = sharp + 0.5 * (ee + ee.transpose(1, 0, 2, 3)).transpose(2, 3, 0, 1)

    def table(b):
        # (6, 6, 21, 21) at (a, b, p, q) -> row p, column 21 k + q; + 0.0
        # turns the -0.0 entries to 0.0
        return np.ascontiguousarray(b[_TRIU].transpose(1, 0, 2).reshape(21, 441)) + 0.0

    return table(sharp), table(square)


_SHARP_TABLE, _Q_TABLE = _quadratic_tables()


def _quadratic(y, table):
    """The quadratic map of a table on an (m, 21) coordinate stack.

    y @ table holds sum_p y_p B(E_p, E_q)_k of each operator at (k, q), and
    one per-operator product with y sums over q.  A row's bits do not
    depend on its stack mates (tested for every m up to 40).  Returns a new
    (m, 21) stack.
    """
    m = len(y)
    return ((y @ table).reshape(m, 21, 21) @ y[:, :, None]).reshape(m, 21)


def _one_operator(r, table):
    """The quadratic map of a table on one symmetric operator, as a 6x6
    operator; where it overflows, the entries are non-finite and numpy
    stays silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _expand(_quadratic(_coords(r)[None], table))[0]


def sharp(r):
    """Sharp operator R#, symmetric 6x6 (the kernel on the R# table).  An
    operator whose R# overflows gives non-finite entries, without a
    warning."""
    return _one_operator(check_operator(r), _SHARP_TABLE)


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
    """Right-hand side of the curvature ODE, Q(R) = R^2 + R# (the kernel on
    the Q table).  An operator whose Q overflows gives non-finite entries,
    without a warning."""
    return _one_operator(require_bianchi_valid(r), _Q_TABLE)


def bilinear_b(r, s):
    """Symmetric bilinear form with B(R, R) = Q(R), by polarization of Q.
    Where it overflows, the entries are non-finite, without a warning."""
    r = require_bianchi_valid(r, name="R")
    s = require_bianchi_valid(s, name="S")
    with np.errstate(over="ignore", invalid="ignore"):
        q = _quadratic(_coords(np.stack([r + s, r, s])), _Q_TABLE)
        return _expand(0.5 * (q[0] - q[1] - q[2]))


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

# Operator-steps held in one record block: a block of a stack of m running
# trajectories spans max(1, RECORD_ROWS // m) steps.
RECORD_ROWS = 32


def _record(block, idx, params, sample):
    """Check and sample one block of the running trajectories in one pass.

    block holds their coordinates after each of s consecutive steps, shape
    (s, m, 21), and idx their positions in the stack; the block is expanded
    to 6x6 operators once.  A trajectory's samples are kept up to and
    including its first stop in the block, blowup or a tracked margin under
    the floor; sample(idx, r, m, nrm) gets the kept ones in step order, so
    its idx may repeat a trajectory.  Raises if a kept sample has drifted off
    the Bianchi subspace (drift 3|star component| = |trace(R HODGE_STAR)|/2),
    naming the first in step order.  Returns the mask of the trajectories
    that stopped in the block and the mask of those whose stop is a blowup.
    """
    s, n = block.shape[:2]
    r = _expand(block.reshape(s * n, 21))
    m = _fast_margins(r)
    flat = r.reshape(s * n, 36)
    nrm = np.sqrt(np.vecdot(flat, flat))
    blowup = stop = nrm > params.blowup_norm
    if params.margin_floor is not None:
        for c in params.margin_cones:
            stop = stop | (m[c] < params.margin_floor)
    rows = np.concatenate([idx] * s)
    stop, blowup = stop.reshape(s, n), blowup.reshape(s, n)
    if np.count_nonzero(stop):
        # a trajectory's samples end at its first stop
        first = np.where(stop.any(axis=0), stop.argmax(axis=0), s - 1)
        cols = np.arange(n)
        stopped, blowup = stop[first, cols], blowup[first, cols]
        if (first < s - 1).any():
            keep = (np.arange(s)[:, None] <= first).ravel()
            r, flat, nrm, rows = r[keep], flat[keep], nrm[keep], rows[keep]
            m = {c: v[keep] for c, v in m.items()}
    else:
        stopped = blowup = stop[0]
    star_trace = flat @ _STAR_FLAT
    over = np.abs(star_trace) > (2.0 * BIANCHI_DRIFT_TOL) * (1.0 + nrm)
    if np.count_nonzero(over):
        drift = 0.5 * abs(star_trace[over][0])
        raise RuntimeError(f"Bianchi drift {drift:.3e} exceeded tolerance mid-flow")
    sample(rows, r, m, nrm)
    return stopped, blowup


def _overflowed(y):
    """Mask of the coordinate rows with a non-finite entry, None when there
    is none."""
    if math.isfinite(np.vdot(y, y)):
        return None
    lost = ~np.isfinite(y).all(axis=1)
    return lost if lost.any() else None


def _step_factors(dt):
    """h, h/2 and h/6 for the running trajectories: scalars when they share
    one step, (m, 1) columns otherwise."""
    h = dt[0] if (dt == dt[0]).all() else dt[:, None]
    return h, 0.5 * h, h / 6.0


def _step_counts(t_max, dt):
    """Full steps of each trajectory, and the mask of those that end with a
    partial step of t_max - full * dt: all but those whose t_max / dt lies
    within 1e-9 of an integer."""
    x = t_max / dt
    full = np.floor(x + 1e-9)
    return full.astype(int), x - full > 1e-9


def _rk4_step(y, h, half, sixth, out):
    """One classical RK4 step of an (m, 21) coordinate stack,
    y + h/6 (((k1 + 2 k2) + 2 k3) + k4), summed in place in that order, each k
    freed as soon as it is summed.  The stage inputs and then the result are
    written to out, which must not overlap y; returns out."""
    acc = _quadratic(y, _Q_TABLE)
    z = np.multiply(acc, half, out=out)
    z += y
    k = _quadratic(z, _Q_TABLE)
    np.multiply(k, half, out=z)
    z += y
    k *= 2.0
    acc += k
    del k
    k = _quadratic(z, _Q_TABLE)
    np.multiply(k, h, out=z)
    z += y
    k *= 2.0
    acc += k
    del k
    acc += _quadratic(z, _Q_TABLE)
    np.multiply(acc, sixth, out=z)
    z += y
    return z


def _rk4(r, params, sample):
    """Classical RK4 of dR/dt = Q(R) on a validated (n, 6, 6) stack.

    Each trajectory has its own fixed step (default_dt unless params.dt is
    set) and step count, ends at t_max with a partial last step where the
    step does not divide it, and stops on its own.  The running states are
    the upper-triangle coordinates of the operators.  They are recorded in
    blocks of up to RECORD_ROWS operator-steps that end where the step
    schedule changes: each step writes into its block slot, and _record
    checks and samples the block in one pass.  sample(idx, r, m, nrm) gets
    the operators, margins and norms of the kept samples of one block in
    step order, idx their positions in the stack: the t=0 sample first, then
    every step up to each trajectory's stop.  A step that overflows to a
    non-finite operator, or under normalization turns a scalar curvature
    nonpositive, ends the block before it and is then settled on its own:
    an overflowing trajectory ends as a blowup and is not sampled.  Returns
    the termination and the step of each trajectory.
    """
    if not isinstance(params, FlowParams):
        raise TypeError("params must be a FlowParams")
    if not (math.isfinite(params.t_max) and params.t_max > 0.0):
        raise ValueError("t_max must be positive and finite")
    if params.dt is not None and not math.isfinite(params.dt):
        raise ValueError("dt must be finite")
    if math.isnan(params.blowup_norm):
        raise ValueError("blowup_norm must not be NaN")
    if params.margin_floor is not None and math.isnan(params.margin_floor):
        raise ValueError("margin_floor must not be NaN")
    dt = default_dt(r) if params.dt is None else np.full(len(r), params.dt, dtype=float)
    if (dt <= 0.0).any():
        raise ValueError("dt must be positive")
    if (dt >= params.t_max).any():
        raise ValueError("dt must be smaller than t_max")
    for cone in params.margin_cones:
        cones._check_cone(cone)
    y = _coords(r)
    del r  # only the coordinates run, so a probe's seed stack is freed here
    if params.normalize:
        scal0 = 2.0 * y[:, _DIAG].sum(axis=1)
        if (scal0 <= 0.0).any():
            raise ValueError("normalization requires positive initial scalar curvature")

    full, partial = _step_counts(params.t_max, dt)
    steps, tail = full + partial, params.t_max - full * dt
    terminations = ["completed"] * len(y)
    idx = np.arange(len(y))

    def rescaled(y):
        # under normalization, rescale y in place to the initial scalar
        # curvatures; False, with y untouched, where one turned nonpositive
        if params.normalize:
            s_now = 2.0 * y[:, _DIAG].sum(axis=1)
            if np.count_nonzero(s_now <= 0.0):
                return False
            y *= (scal0[idx] / s_now)[:, None]
        return True

    def settle(k, stopped, blowup):
        # end the trajectories that stopped or completed at step k, and
        # return the mask of the others
        nonlocal idx
        done = stopped | (steps[idx] == k)
        for j in np.flatnonzero(done):
            terminations[idx[j]] = (
                "blowup" if blowup[j] else "margin_violation" if stopped[j] else "completed"
            )
        idx = idx[~done]
        return ~done

    _record(y[None], idx, params, sample)  # t=0: a one-step block, no stop
    k = 0
    # an overflowing step is caught by _overflowed, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while len(idx):
            # the step factors hold up to `last`, where a trajectory ends or
            # turns to its partial step
            f = full[idx]
            h, half, sixth = _step_factors(np.where(f > k, dt[idx], tail[idx]))
            last = int(np.where(f > k, f, steps[idx]).min())
            block = np.empty((min(max(1, RECORD_ROWS // len(idx)), last - k), len(idx), 21))
            clean = len(block)
            for s in range(len(block)):
                y = _rk4_step(y, h, half, sixth, block[s])
                if _overflowed(y) is not None or not rescaled(y):
                    clean = s
                    break
            alive = slice(None)
            if clean:
                k += clean
                alive = settle(k, *_record(block[:clean], idx, params, sample))
            if clean == len(block) or not len(idx):
                y = block[-1][alive]
                continue
            # the step that cut the block, for the trajectories still running
            y = block[clean][alive]
            lost = _overflowed(y)
            if lost is not None:
                for j in np.flatnonzero(lost):
                    terminations[idx[j]] = "blowup"
                idx, y = idx[~lost], y[~lost]
                if not len(idx):
                    break
            if not rescaled(y):
                raise RuntimeError("scalar curvature became nonpositive under normalization")
            k += 1
            y = y[settle(k, *_record(y[None], idx, params, sample))]
    return terminations, dt


def integrate(r0, params):
    """Classical RK4 integration of dR/dt = Q(R) with fixed step, and a
    partial last step where the step does not divide t_max.

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
        ops.extend(op.copy() for op in rr)
        for c in cones.CONE_IDS:
            margins[c].extend(m[c].tolist())
        norms.extend(nrm.tolist())

    (termination,), dt = _rk4(r, params, sample)
    t = np.arange(len(ops)) * dt[0]
    full, _ = _step_counts(params.t_max, dt)
    if len(ops) == full[0] + 2:
        t[-1] = params.t_max  # the sample after the partial last step
    return FlowTrajectory(
        t=t,
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


def _seed_stack(cone, n, seed, n_boundary, margin_low, margin_high):
    """The (n, 6, 6) seeds of a probe; seed k is drawn from the substream
    (seed, k) and the first n_boundary sit at margin in [0, 1e-6]."""
    seeds = np.empty((n, 6, 6))
    for k in range(n):
        rng = np.random.default_rng((seed, k))
        r0 = curvature.random_bianchi(rng, norm=1.0)
        if k < n_boundary:
            target = rng.uniform(0.0, 1e-6)
        else:
            target = rng.uniform(margin_low, margin_high)
        seeds[k] = cones.shift_to_margin(r0, cone, target)
    return seeds


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
    if n < 1:
        raise ValueError("n must be positive")
    minima = np.full(n, np.inf)
    minima_norm = np.full(n, np.inf)

    def sample(idx, r, m, nrm):
        vals = m[cone]
        np.minimum.at(minima, idx, vals)
        np.minimum.at(minima_norm, idx, vals / (1.0 + nrm))

    # the seed stack goes straight to _rk4, so no reference to it outlives
    # its coordinates
    n_boundary = int(round(boundary_fraction * n))
    ends, _ = _rk4(
        _seed_stack(cone, n, seed, n_boundary, margin_low, margin_high), params, sample
    )
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
