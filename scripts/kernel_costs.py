#!/usr/bin/env python3
"""Per-call cost of the hot kernels: CPU time quartiles and minor page faults.

Each kernel runs in a fresh Python process: a few warm-up calls, then timed
calls, each measured by process_time and by the minor page faults that
resource.getrusage counts for the process.  A process that has already
freed a large mapping has raised glibc's dynamic mmap threshold, which hides
the faults of later large temporaries, so the kernels never share one.

    PYTHONPATH=src python3 scripts/kernel_costs.py [--calls N] [--warmup N]

prints one CSV row per kernel: name (quoted where it holds a comma), the
median, first and third quartile of the CPU ms per call, and the minor page
faults per call.  Each unpolished row is the call of the same sign without
the polish, so the difference is the polish's cost per call and the
unpolished row is the sampler's cost plus one frame.  The quadratic rows
are Q on upper-triangle coordinates, the kernel that each RK4 stage calls
once, and the rk4_step row is one step of a stack of eight trajectories.
The two margin rows show the fixed and the per-operator cost of the margin
kernel that the flow record calls once per block.
"""

import argparse
import csv
import json
import os
import resource
import subprocess
import sys
from time import process_time

import numpy as np

import halfpic
from halfpic import cones, curvature, flow, group_actions


def _kernels():
    rng = np.random.default_rng(0)
    r = curvature.random_bianchi(rng, norm=1.0)
    stack = np.stack([curvature.random_bianchi(rng, norm=1.0) for _ in range(32)])
    coords = flow._coords(stack[:8])
    h = float(flow.default_dt(stack[:8]).min())
    out = np.empty_like(coords)
    ten_steps = flow.FlowParams(t_max=1e-2, dt=1e-3)
    return {
        "min_isotropic(4096)": lambda: cones.min_isotropic(r, "+", samples=4096, seed=0),
        "min_isotropic(4096,-)": lambda: cones.min_isotropic(r, "-", samples=4096, seed=0),
        "min_isotropic(4096,unpolished)": lambda: cones.min_isotropic(r, "+", samples=4096, seed=0, polish=False),
        "min_isotropic(4096,-,unpolished)": lambda: cones.min_isotropic(r, "-", samples=4096, seed=0, polish=False),
        "average(5e4)": lambda: group_actions.average(r, "left", n=50_000, seed=0),
        "invariance_probe(n=8)": lambda: flow.invariance_probe("ic_plus", n=8, seed=0),
        "integrate(10 steps)": lambda: flow.integrate(r, ten_steps),
        "quadratic(8 operators)": lambda: flow._quadratic(coords, flow._Q_TABLE),
        "quadratic(1 operator)": lambda: flow._quadratic(coords[:1], flow._Q_TABLE),
        "rk4_step(8 operators)": lambda: flow._rk4_step(coords, h, 0.5 * h, h / 6.0, out),
        "margins(1 operator)": lambda: cones._margins(r[None]),
        "margins(32 operators)": lambda: cones._margins(stack),
    }


def measure(name, calls, warmup):
    """CPU ms quartiles and minor faults per call of one kernel, in this
    process."""
    kernel = _kernels()[name]
    for _ in range(warmup):
        kernel()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        start = process_time()
        kernel()
        times.append(process_time() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    p25, p50, p75 = 1e3 * np.percentile(times, [25, 50, 75])
    return {"cpu_ms_p50": p50, "cpu_ms_p25": p25, "cpu_ms_p75": p75, "faults_per_call": faults / calls}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--calls", type=int, default=50, help="timed calls per kernel")
    ap.add_argument("--warmup", type=int, default=5, help="untimed calls first")
    ap.add_argument("--child", choices=list(_kernels()), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.calls < 1 or args.warmup < 0:
        ap.error("--calls must be positive and --warmup nonnegative")
    if args.child:
        print(json.dumps(measure(args.child, args.calls, args.warmup)))
        return 0

    # the child imports the same halfpic as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfpic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["kernel", "cpu_ms_p50", "cpu_ms_p25", "cpu_ms_p75", "minor_faults_per_call"])
    for name in _kernels():
        cmd = [sys.executable, os.path.abspath(__file__), "--child", name,
               "--calls", str(args.calls), "--warmup", str(args.warmup)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout)
        ms = [f"{res[key]:.4f}" for key in ("cpu_ms_p50", "cpu_ms_p25", "cpu_ms_p75")]
        out.writerow([name, *ms, f"{res['faults_per_call']:.1f}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
