"""Command line front end.

Exit codes: 0 on success, 1 on input or validation errors, 2 when a verify
suite fails.  Output is plain text or JSON; no color is ever emitted, so the
NO_COLOR convention is honored trivially.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import cones, curvature, flow, group_actions, lambda2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argument errors are validation failures, exit code 1 not argparse's 2
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_models(args):
    r = curvature.model(args.name, args.scal)
    _emit(json.dumps(curvature.operator_to_json(r), indent=2) + "\n", args.out)
    return 0


def cmd_classify(args):
    r = curvature.read_operator(args.infile)
    report = cones.membership(r, tol=args.tol)
    sys.stdout.write(json.dumps(report.to_json(), indent=2) + "\n")
    return 0


def cmd_decompose(args):
    r = curvature.read_operator(args.infile)
    d = curvature.decompose(r)
    doc = {
        "scal": d.scal,
        "ric0": [[float(x) for x in row] for row in d.ric0],
        "wplus": [[float(x) for x in row] for row in d.wplus],
        "wminus": [[float(x) for x in row] for row in d.wminus],
        "spectra": {
            "ric0": [float(x) for x in np.linalg.eigvalsh(d.ric0)],
            "wplus": [float(x) for x in np.linalg.eigvalsh(d.wplus)],
            "wminus": [float(x) for x in np.linalg.eigvalsh(d.wminus)],
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_flow(args):
    r = curvature.read_operator(args.infile)
    params = flow.FlowParams(
        t_max=args.t_max,
        dt=args.dt,
        normalize=args.normalize,
        blowup_norm=args.blowup_norm,
        margin_cones=tuple(args.cones),
        margin_floor=args.margin_floor,
    )
    traj = flow.integrate(r, params)
    _emit(flow.trajectory_csv(traj), args.out)
    if args.out:
        sys.stdout.write(
            f"termination={traj.termination} samples={len(traj)} "
            f"t_final={traj.t[-1]:.17g} scal_final={traj.margins['scal'][-1]:.17g}\n"
        )
    if args.snapshots_out:
        _emit(json.dumps(flow.trajectory_snapshots(traj), indent=2) + "\n", args.snapshots_out)
    return 0


def _check_samples(samples, seed):
    # A --samples below one would average or check nothing, and numpy
    # refuses a negative seed without naming the option.
    if samples < 1:
        raise ValueError(f"--samples must be positive, got {samples}")
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def cmd_average(args):
    _check_samples(args.samples, args.seed)
    r = curvature.read_operator(args.infile)
    avg = group_actions.average(r, factor=args.factor, n=args.samples, seed=args.seed)
    proj = group_actions.exact_projection(r, factor=args.factor)
    doc = {
        "factor": args.factor,
        "n": args.samples,
        "seed": args.seed,
        "distance_to_projection": float(np.linalg.norm(avg - proj)),
        "operator": curvature.operator_to_json(avg),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_witness(args):
    r = curvature.read_operator(args.infile)
    result = group_actions.maximality_witness(r)
    _emit(json.dumps(result.to_json(), indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify suites; each returns a list of (name, ok, detail)


def _suite_identities(samples, seed):
    rng = np.random.default_rng(seed)
    checks = []
    i6 = np.eye(6)
    checks.append(("Q(Id) = 3 Id", np.abs(flow.q_vf(i6) - 3 * i6).max(), 1e-12))
    checks.append(("sharp(Id) = 2 Id", np.abs(flow.sharp(i6) - 2 * i6).max(), 1e-12))
    checks.append(("B(Id, Id) = 3 Id", np.abs(flow.bilinear_b(i6, i6) - 3 * i6).max(), 1e-12))
    c = curvature.model("cp2", 12.0)
    checks.append(("Q(cp2) = 3 cp2", np.abs(flow.q_vf(c) - 3 * c).max(), 1e-9))
    checks.append(
        ("B(cp2, Id) = 3 Id", np.abs(flow.bilinear_b(c, i6) - 3 * i6).max(), 1e-9)
    )
    worst = worst_q = 0.0
    for _ in range(max(10, samples // 50)):
        r = curvature.random_bianchi(rng)
        polarized = flow.sharp_by_polarization(r)
        worst = max(worst, np.abs(flow.sharp(r) - polarized).max())
        worst_q = max(worst_q, np.abs(flow.q_vf(r) - (r @ r + polarized)).max())
    checks.append(("sharp structure constants vs polarization", worst, 1e-12))
    checks.append(("Q = R^2 + polarized sharp", worst_q, 1e-12))
    worst = 0.0
    for _ in range(max(10, samples // 100)):
        r = curvature.random_bianchi(rng)
        g = lambda2.quat_to_rot(lambda2.haar_quaternion(rng), lambda2.haar_quaternion(rng))
        worst = max(worst, np.abs(flow.sharp(curvature.act(g, r)) - curvature.act(g, flow.sharp(r))).max())
    checks.append(("sharp equivariance", worst, 1e-9))
    worst = 0.0
    for _ in range(20):
        q = lambda2.haar_quaternion(rng)
        m = lambda2.induced_map(lambda2.s3_minus(q))
        worst = max(worst, np.abs(lambda2.PLUS_BASIS.T @ m @ lambda2.PLUS_BASIS - np.eye(3)).max())
        m = lambda2.induced_map(lambda2.s3_plus(q))
        worst = max(worst, np.abs(lambda2.MINUS_BASIS.T @ m @ lambda2.MINUS_BASIS - np.eye(3)).max())
    checks.append(("double-cover factors fix their eigenspaces", worst, 1e-12))
    return [(name, val <= tol, f"worst {val:.3e} tol {tol:g}") for name, val, tol in checks]


def _suite_bianchi(samples, seed):
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    for _ in range(samples):
        g = rng.standard_normal((6, 6))
        s = (g + g.T) / 2.0
        d = curvature.bianchi_defect(s)
        cheap = abs(np.trace(s @ lambda2.HODGE_STAR)) / 2.0
        worst = max(worst, abs(d - cheap))
    results.append(("defect equals |tr(R star)|/2", worst <= 1e-12, f"worst {worst:.3e}"))
    worst = 0.0
    for _ in range(samples):
        g = rng.standard_normal((6, 6))
        s = (g + g.T) / 2.0
        worst = max(worst, curvature.bianchi_defect(curvature.bianchi_project(s)))
    results.append(("projection kills the defect", worst <= 1e-12, f"worst {worst:.3e}"))
    d_star = curvature.bianchi_defect(lambda2.HODGE_STAR)
    results.append(("defect of the star is 3", abs(d_star - 3.0) <= 1e-15, f"value {d_star}"))
    worst = 0.0
    for _ in range(max(1, samples // 2)):
        r = curvature.random_bianchi(rng)
        worst = max(worst, np.abs(curvature.recompose(curvature.decompose(r)) - r).max())
    results.append(("decompose/recompose roundtrip", worst <= 1e-10, f"worst {worst:.3e}"))
    return results


def _suite_pic_equivalence(samples, seed):
    rng = np.random.default_rng(seed)
    results = []
    agree = True
    worst_iso = worst_half = 0.0
    n_iso = min(samples, 50)
    for k in range(samples):
        r = curvature.random_bianchi(rng, norm=1.0)
        mp = cones.cone_margin(r, "ic_plus")
        tp = cones.two_positive_margin(curvature.plus_block(r))
        if abs(mp) > cones.default_boundary_tol(r) and np.sign(mp) != np.sign(tp):
            agree = False
        if k < n_iso:
            got = cones.min_isotropic(r, "+", samples=4096, seed=seed + k)
            worst_iso = max(worst_iso, abs(got - 2.0 * tp))
            worst_half = max(worst_half, abs(mp - got / 2.0))
    results.append(("sign agreement outside the boundary band", agree, f"{samples} operators"))
    results.append(
        ("min_isotropic equals twice the block margin", worst_iso <= 1e-4, f"worst {worst_iso:.3e}")
    )
    results.append(
        ("cone margin equals half of min_isotropic", worst_half <= 1e-4, f"worst {worst_half:.3e}")
    )
    refl = np.diag([1.0, 1.0, 1.0, -1.0])
    worst = 0.0
    for _ in range(min(samples, 200)):
        r = curvature.random_bianchi(rng)
        flipped = cones.cone_margin(curvature.act(refl, r), "ic_plus")
        worst = max(worst, abs(flipped - cones.cone_margin(r, "ic_minus")))
    results.append(("orientation flip swaps the half cones", worst <= 1e-10, f"worst {worst:.3e}"))
    return results


def _suite_invariance(samples, seed):
    n = max(5, samples // 40)

    def probe(cone):
        m = flow.invariance_probe(cone, n=n, seed=seed).min_margin_normalized
        return m >= -1e-6, f"min normalized margin {m:.3e}"

    def identity():
        i6 = np.eye(6)
        traj = flow.integrate(i6, flow.FlowParams(t_max=0.1, dt=1e-4))
        err = np.abs(traj.operators[-1] - i6 / 0.7).max()
        return err <= 1e-8, f"error {err:.3e}"

    checks = [(f"probe {cone} (n={n})", functools.partial(probe, cone)) for cone in cones.CONE_IDS]
    checks.append(("identity flow matches 1/(1-3t)", identity))
    results = []
    for name, check in checks:
        # a flow that raises mid-run (Bianchi drift, say) fails its own check
        try:
            ok, detail = check()
        except RuntimeError as e:
            ok, detail = False, f"error: {e}"
        results.append((name, ok, detail))
    return results


def _suite_averaging(samples, seed):
    rng = np.random.default_rng(seed)
    results = []
    r_fix = curvature.assemble(scal=5.0, wplus=np.diag([1.0, -0.25, -0.75]))
    err = np.abs(group_actions.average(r_fix, "left", n=500, seed=seed) - r_fix).max()
    results.append(("fixed points average to themselves", err <= 1e-12, f"error {err:.3e}"))
    worst = 0.0
    n_mc = max(samples * 20, 20000)
    for _ in range(5):
        r = curvature.random_bianchi(rng, norm=1.0)
        for factor in ("left", "right"):
            a = group_actions.average(r, factor, n=n_mc, seed=seed)
            p = group_actions.exact_projection(r, factor)
            worst = max(worst, float(np.linalg.norm(a - p)))
    bound = 3.0 * 6.0 / np.sqrt(n_mc)
    results.append(
        (f"factor averages near projections (n={n_mc})", worst <= bound, f"worst {worst:.3e} bound {bound:.3e}")
    )
    worst = 0.0
    n_exact = min(samples, 200)
    for k in range(n_exact):
        r = curvature.random_bianchi(rng, norm=(1.0, 1e6, 1e-3)[k % 3])
        for factor in ("left", "right"):
            err = np.abs(group_actions.group_average(r, factor) - group_actions.exact_projection(r, factor)).max()
            worst = max(worst, float(err) / (1.0 + np.linalg.norm(r)))
    results.append(
        (f"2T quadrature equals the projections ({n_exact} operators)", worst <= 1e-14, f"worst {worst:.3e}")
    )
    # The blocks that average(..., seed=seed) consumes, against the moments
    # of the uniform measure on S^3: E q = 0, E q q^T = I/4, and E q_a^2 q_b^2
    # = 1/8 for a = b, 1/24 otherwise.  Plain sums, block by block.
    s1, s2, s4 = np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4))
    for q in lambda2.haar_blocks(np.random.default_rng(seed), n_mc):
        sq = q * q
        s1 += q.sum(axis=0)
        s2 += q.T @ q
        s4 += sq.T @ sq
    i4 = np.eye(4)
    worst = max(np.abs(s1 / n_mc).max(), np.abs(s2 / n_mc - i4 / 4.0).max(),
                np.abs(s4 / n_mc - np.where(i4 == 1.0, 1.0 / 8.0, 1.0 / 24.0)).max())
    bound = 4.0 / np.sqrt(n_mc)
    results.append(
        (f"Haar draws have the uniform moments through degree four (n={n_mc})", worst <= bound,
         f"worst {worst:.3e} bound {bound:.3e}")
    )
    return results


_SUITES = {
    "identities": _suite_identities,
    "bianchi": _suite_bianchi,
    "pic-equivalence": _suite_pic_equivalence,
    "invariance": _suite_invariance,
    "averaging": _suite_averaging,
}


def cmd_verify(args):
    _check_samples(args.samples, args.seed)
    results = _SUITES[args.suite](args.samples, args.seed)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        sys.stdout.write(f"{status} {name}: {detail}\n")
    sys.stdout.write(
        f"suite {args.suite}: {len(results) - failed}/{len(results)} checks passed\n"
    )
    return 0 if failed == 0 else 2


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every main call."""
    p = _Parser(prog="halfpic", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("models", help="write a reference curvature operator")
    m.add_argument("--name", required=True, choices=curvature.MODEL_NAMES)
    m.add_argument("--scal", type=float, default=12.0,
                   help="scalar curvature, or inverse squared radius for the products")
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_models)

    c = sub.add_parser("classify", help="cone membership margins of an operator")
    c.add_argument("--input", dest="infile", required=True)
    c.add_argument("--tol", type=float, default=None)
    c.set_defaults(func=cmd_classify)

    d = sub.add_parser("decompose", help="irreducible parts and their spectra")
    d.add_argument("--input", dest="infile", required=True)
    d.set_defaults(func=cmd_decompose)

    f = sub.add_parser("flow", help="integrate the curvature ODE")
    f.add_argument("--input", dest="infile", required=True)
    f.add_argument("--t-max", type=float, default=0.1)
    f.add_argument("--dt", type=float, default=None)
    f.add_argument("--normalize", action="store_true")
    f.add_argument("--blowup-norm", type=float, default=1e8)
    f.add_argument("--margin-floor", type=float, default=None)
    f.add_argument("--cones", nargs="+", choices=cones.CONE_IDS, default=cones.CONE_IDS)
    f.add_argument("--out", default=None, help="trajectory CSV path (stdout if omitted)")
    f.add_argument("--snapshots-out", default=None, help="operator snapshots JSON path")
    f.set_defaults(func=cmd_flow)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("average", help="Monte-Carlo factor average")
    a.add_argument("--input", dest="infile", required=True)
    a.add_argument("--factor", choices=group_actions.FACTORS, default="left")
    a.add_argument("--samples", type=int, default=10000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_average)

    w = sub.add_parser("witness", help="boundary witness for cone maximality")
    w.add_argument("--input", dest="infile", required=True)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_witness)

    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
