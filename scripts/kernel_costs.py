#!/usr/bin/env python3
"""Per-call cost of the hot kernels: median CPU time and minor page faults.

Each kernel runs in a fresh Python process: a few warm-up calls, then timed
calls, each measured by process_time and by the minor page faults that
resource.getrusage counts for the process.  A process that has already
freed a large mapping has raised glibc's dynamic mmap threshold, which hides
the faults of later large temporaries, so the kernels never share one.

    PYTHONPATH=src python3 scripts/kernel_costs.py [--calls N] [--warmup N]

prints one CSV row per kernel: name (quoted where it holds a comma),
median CPU ms per call, minor page faults per call.
"""

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
from time import process_time

import numpy as np

import halfpic
from halfpic import cones, curvature, flow, group_actions


def _kernels():
    rng = np.random.default_rng(0)
    r = curvature.random_bianchi(rng, norm=1.0)
    stack = np.stack([curvature.random_bianchi(rng, norm=1.0) for _ in range(8)])
    ten_steps = flow.FlowParams(t_max=1e-2, dt=1e-3)
    return {
        "min_isotropic(4096)": lambda: cones.min_isotropic(r, "+", samples=4096, seed=0),
        "min_isotropic(4096,-)": lambda: cones.min_isotropic(r, "-", samples=4096, seed=0),
        "average(5e4)": lambda: group_actions.average(r, "left", n=50_000, seed=0),
        "invariance_probe(n=8)": lambda: flow.invariance_probe("ic_plus", n=8, seed=0),
        "integrate(10 steps)": lambda: flow.integrate(r, ten_steps),
        "q_raw(8 operators)": lambda: flow._q_raw(stack),
        "q_raw(1 operator)": lambda: flow._q_raw(r[None]),
    }


def measure(name, calls, warmup):
    """Median CPU ms and minor faults per call of one kernel, in this process."""
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
    return {"cpu_ms_p50": 1e3 * statistics.median(times), "faults_per_call": faults / calls}


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
    out.writerow(["kernel", "cpu_ms_p50", "minor_faults_per_call"])
    for name in _kernels():
        cmd = [sys.executable, os.path.abspath(__file__), "--child", name,
               "--calls", str(args.calls), "--warmup", str(args.warmup)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout)
        out.writerow([name, f"{res['cpu_ms_p50']:.4f}", f"{res['faults_per_call']:.1f}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
