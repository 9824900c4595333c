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
from .curvature import _check_count, check_operator, require_bianchi_valid
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
# 2 Q, for RK4 stages 2 and 3: doubling is exact, so the kernel on this
# table returns exactly twice the kernel on _Q_TABLE.  It is a second copy
# of Q: whatever replaces _Q_TABLE must also set _Q2_TABLE to twice the
# new table, or stages 2 and 3 keep the old Q.
_Q2_TABLE = 2.0 * _Q_TABLE


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
    return float(_sharp_forms(check_operator(r), lambda2._as_vector(eta, 6, "eta")))


def _sharp_forms(r, eta):
    """The defining quadratic form at each bivector of an (..., 6) stack eta:
    the brackets of eta with R w_i, column i of R, for the six basis
    bivectors w_i, then with R applied to those, each round one stacked
    so(4) commutator; the six terms <., w_i> are summed in basis order."""
    eta = eta[..., None, :]
    inner = lambda2._bracket(eta, r.T)
    outer = lambda2._bracket(eta, np.matmul(r, inner[..., None])[..., 0])
    terms = np.diagonal(outer, axis1=-2, axis2=-1)
    total = 0.0
    for i in range(6):
        total = total + terms[..., i]
    return -0.5 * total


def sharp_by_polarization(r):
    """Sharp operator assembled entry by entry from the quadratic form,
    <R# a, b> = (q(a+b) - q(a-b))/4, all 42 forms as one stack.  Slow
    reference route for sharp."""
    r = check_operator(r)
    a, b = np.triu_indices(6)
    eye = np.eye(6)
    q = _sharp_forms(r, np.concatenate([eye[a] + eye[b], eye[a] - eye[b]]))
    s = np.zeros((6, 6))
    s[a, b] = s[b, a] = (q[:21] - q[21:]) / 4.0
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
    """Samples of one integration, first sample at t=0: the times, the
    operators, the margin of each cone (margins["scal"] is the scalar
    curvature), the norms and how the integration ended."""

    t: np.ndarray
    operators: list
    margins: dict
    norm: np.ndarray
    termination: str

    def __len__(self):
        return len(self.t)


# The margin kernel, bound at module level so the RK4 core looks it up at call
# time and a self-test can plant a wrong one (bench/selftest.py).
_fast_margins = cones._margins

# trace(R HODGE_STAR) as one dot per flattened operator
_STAR_FLAT = lambda2.HODGE_STAR.T.ravel()

# Operator-steps held in one record block: a block of m running trajectories
# spans max(1, RECORD_ROWS // m) steps, or fewer, up to the first one's end.
RECORD_ROWS = 32

_ENDINGS = ("completed", "margin_violation", "blowup")


def _record(block, idx, last, params, sample):
    """Check and sample one block of the running trajectories in one pass.

    block holds their coordinates after each of s consecutive steps, shape
    (s, m, 21), idx their positions in the stack and last the slot of each
    one's last step; the block is expanded to 6x6 operators once.  One stop
    mask holds every way a trajectory ends: its last step, blowup, a tracked
    margin under the floor, and an overflow to a non-finite state, which
    ends it as a blowup.  A trajectory's samples are kept up to and
    including its first stop, but a non-finite state is zeroed for the
    margin kernel and not kept; sample(idx, r, m, nrm) gets the kept ones in
    step order, so its idx may repeat a trajectory.  Raises if a kept sample
    has drifted off the Bianchi subspace (drift 3|star component| =
    |trace(R HODGE_STAR)|/2), naming the first in step order, or, under
    normalization, has a nonpositive scalar curvature.  Returns the mask of
    the trajectories that ended in the block and the ending code of each, an
    index into _ENDINGS.

    A trip is a sample that stops its trajectory before its last step:
    blowup, a non-finite state or a tracked margin under the floor.  No
    block runs past a trajectory's last step, so a block without a trip
    keeps every sample and completes exactly the trajectories whose last
    step is its last slot; only a block with a trip looks for each
    trajectory's first stop and filters the kept samples.
    """
    s, n = block.shape[:2]
    lost = ~np.isfinite(block).all(axis=2)
    r = _expand(block.reshape(s * n, 21))
    if lost.any():
        r[lost.ravel()] = 0.0  # eigvalsh raises on NaN
    m = _fast_margins(r)
    flat = r.reshape(s * n, 36)
    nrm = np.sqrt(np.vecdot(flat, flat))
    blowup = tripped = lost | (nrm > params.blowup_norm).reshape(s, n)
    if params.margin_floor is not None:
        for c in params.margin_cones:
            tripped = tripped | (m[c] < params.margin_floor).reshape(s, n)
    rows = np.concatenate([idx] * s)
    if tripped.any():
        slots = np.arange(s)[:, None]
        stop = tripped | (slots == last)
        ended = stop.any(axis=0)
        cols = np.arange(n)
        first = np.where(ended, stop.argmax(axis=0), s - 1)
        code = np.where(blowup[first, cols], 2, tripped[first, cols])
        keep = ((slots <= first) & ~lost).ravel()
        if not keep.all():
            r, flat, nrm, rows = r[keep], flat[keep], nrm[keep], rows[keep]
            m = {c: v[keep] for c, v in m.items()}
        del stop, first, cols, slots, keep
    else:
        # no block runs past a last step, so every sample is kept and the
        # trajectories at their last step complete
        ended, code = last == s - 1, np.zeros(n, dtype=int)
    star_trace = flat @ _STAR_FLAT
    over = np.abs(star_trace) > (2.0 * BIANCHI_DRIFT_TOL) * (1.0 + nrm)
    if np.count_nonzero(over):
        drift = 0.5 * abs(star_trace[over][0])
        raise RuntimeError(f"Bianchi drift {drift:.3e} exceeded tolerance mid-flow")
    if params.normalize and (m["scal"] <= 0.0).any():
        raise RuntimeError("scalar curvature became nonpositive under normalization")
    # only what sample gets and what _record returns stay alive while it runs
    del lost, blowup, tripped, star_trace, over
    sample(rows, r, m, nrm)
    return ended, code


# The step count t_max / dt at which _step_counts' rounding stops being exact.
MAX_STEPS = 2.0**53


def _step_counts(t_max, dt):
    """Full steps of each trajectory, and the mask of those that end with a
    partial step of t_max - full * dt: all but those whose t_max / dt lies
    within 1e-9 of an integer."""
    x = t_max / dt
    full = np.floor(x + 1e-9)
    return full.astype(int), x - full > 1e-9


def _rk4_step(y, half, quarter, sixth, out):
    """One classical RK4 step of an (m, 21) coordinate stack,
    y + h/6 (((k1 + 2 k2) + 2 k3) + k4), summed in place in that order, each k
    freed as soon as it is summed; half, quarter and sixth are h/2, h/4 and
    h/6 per row.  Stages 2 and 3 run on _Q2_TABLE and so return 2 k2 and
    2 k3, exactly, and their successors' inputs y + (h/4)(2 k2) and
    y + (h/2)(2 k3) equal y + (h/2) k2 and y + h k3 bit for bit.  The stage
    inputs and then the result are written to out, which must not overlap y;
    returns out."""
    acc = _quadratic(y, _Q_TABLE)
    z = np.multiply(acc, half, out=out)
    z += y
    k = _quadratic(z, _Q2_TABLE)
    np.multiply(k, quarter, out=z)
    z += y
    acc += k
    del k
    k = _quadratic(z, _Q2_TABLE)
    np.multiply(k, half, out=z)
    z += y
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
    the upper-triangle coordinates of the operators.  Each step writes them
    into its slot of a record block, with each row's own factors for that
    slot (its step or its partial last step); a block spans up to
    RECORD_ROWS operator-steps and ends at the first trajectory's last step
    at most, and _record checks and samples it in one pass and ends the
    trajectories that stop in it.  Under normalization each row whose scalar
    curvature is positive is rescaled to its initial one after every step;
    _record raises on a kept sample that is not.  sample(idx, r, m, nrm)
    gets the operators, margins and norms of the kept samples of one block
    in step order, idx their positions in the stack: the t=0 sample first,
    then every step up to each trajectory's stop.  Returns the termination
    and the step of each trajectory.
    """
    if not isinstance(params, FlowParams):
        raise TypeError("params must be a FlowParams")
    if not (math.isfinite(params.t_max) and params.t_max > 0.0):
        raise ValueError("t_max must be positive and finite")
    if params.dt is not None and not math.isfinite(params.dt):
        raise ValueError("dt must be finite")
    if not params.blowup_norm > 0.0:
        raise ValueError(f"blowup_norm must be positive, got {params.blowup_norm}")
    if params.margin_floor is not None and math.isnan(params.margin_floor):
        raise ValueError("margin_floor must not be NaN")
    dt = default_dt(r) if params.dt is None else np.full(len(r), params.dt, dtype=float)
    if (dt <= 0.0).any():
        raise ValueError("dt must be positive")
    if (dt >= params.t_max).any():
        raise ValueError("dt must be smaller than t_max")
    if params.t_max >= dt.min() * MAX_STEPS:  # t_max / dt >= 2^53, compared exactly
        low = float(dt.min())
        raise ValueError(
            f"dt = {low:.3g} needs {params.t_max / low:.3g} steps to reach t_max; the step count must stay below 2^53"
        )
    for cone in params.margin_cones:
        cones._check_cone(cone)
    y = _coords(r)
    del r  # only the coordinates run, so a probe's seed stack is freed here
    if params.normalize:
        scal0 = 2.0 * y[:, _DIAG].sum(axis=1, keepdims=True)
        if (scal0 <= 0.0).any():
            raise ValueError("normalization requires positive initial scalar curvature")

    full, partial = _step_counts(params.t_max, dt)
    steps, tail = full + partial, params.t_max - full * dt
    terminations = ["completed"] * len(y)
    idx = np.arange(len(y))
    _record(y[None], idx, steps, params, sample)  # t=0 is slot 0; its stops are ignored
    k = 0
    # an overflowing step ends its trajectory in _record, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while len(idx):
            last = steps[idx] - k - 1
            slots = np.arange(min(max(1, RECORD_ROWS // len(idx)), last.min() + 1))
            h = np.where(slots[:, None] < full[idx] - k, dt[idx], tail[idx])[:, :, None]
            half, quarter, sixth = 0.5 * h, 0.25 * h, h / 6.0
            del h  # the steps take only its factors
            block = np.empty((len(slots), len(idx), 21))
            for s in range(len(slots)):
                y = _rk4_step(y, half[s], quarter[s], sixth[s], block[s])
                if params.normalize:
                    scal = 2.0 * y[:, _DIAG].sum(axis=1, keepdims=True)
                    y *= np.divide(scal0[idx], scal, out=np.ones_like(scal), where=scal > 0.0)
            k += len(slots)
            del half, quarter, sixth  # freed before _record samples
            ended, code = _record(block, idx, last, params, sample)
            for j in np.flatnonzero(ended):
                terminations[idx[j]] = _ENDINGS[code[j]]
            idx, y = idx[~ended], y[~ended]
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
        margins={c: np.array(v) for c, v in margins.items()},
        norm=np.array(norms),
        termination=termination,
    )


def trajectory_csv(traj):
    """CSV text of a trajectory, one row per sample, 17 significant digits."""
    buf = io.StringIO()
    buf.write(TRAJECTORY_HEADER + "\n")
    for k in range(len(traj)):
        row = (
            traj.t[k],
            traj.margins["scal"][k],
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
    min_margin: float
    min_margin_normalized: float
    worst_index: int
    trajectory_minima: np.ndarray = field(repr=False)
    terminations: dict = field(default_factory=dict)


def _seed_stack(cone, n, seed):
    """The (n, 6, 6) seeds of a probe.  Seed k is a unit-norm Gaussian
    sample of the Bianchi space drawn from the substream (seed, k), then a
    start margin from the same substream, and is shifted along the identity
    to that margin: the first round(n / 2) at margins from U[0, 1e-6], the
    rest from U[0, 0.5]."""
    seeds = np.empty((n, 6, 6))
    for k in range(n):
        rng = np.random.default_rng((seed, k))
        r0 = curvature.random_bianchi(rng, norm=1.0)
        target = rng.uniform(0.0, 1e-6 if k < round(n / 2) else 0.5)
        seeds[k] = cones.shift_to_margin(r0, cone, target)
    return seeds


def invariance_probe(cone, n=100, seed=0, params=None):
    """Integrate n random in-cone operators and report the worst margin.

    The seeds are those of _seed_stack: half of them start within 1e-6 of
    the cone's boundary, the rest up to 0.5 inside.  Trajectory k is driven
    by the substream (seed, k), so (seed, worst_index) replays the worst
    one.  All n seeds run as one stacked integration, with the same numbers
    as n separate integrate calls; only running minima are kept.
    """
    cones._check_cone(cone)
    if params is None:
        params = FlowParams(t_max=0.05, dt=None, normalize=False)
    n = _check_count(n, "n")
    minima = np.full(n, np.inf)
    minima_norm = np.full(n, np.inf)

    def sample(idx, r, m, nrm):
        vals = m[cone]
        np.minimum.at(minima, idx, vals)
        np.minimum.at(minima_norm, idx, vals / (1.0 + nrm))

    # the seed stack goes straight to _rk4, so no reference to it outlives
    # its coordinates
    ends, _ = _rk4(_seed_stack(cone, n, seed), params, sample)
    worst = int(np.argmin(minima_norm))
    return ProbeReport(
        cone=cone,
        n=n,
        seed=seed,
        min_margin=float(minima.min()),
        min_margin_normalized=float(minima_norm.min()),
        worst_index=worst,
        trajectory_minima=minima,
        terminations=dict(Counter(ends)),
    )
