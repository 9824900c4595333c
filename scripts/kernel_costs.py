#!/usr/bin/env python3
"""Per-call cost of the hot kernels: CPU time quartiles and minor page faults.

Each kernel runs in a fresh Python process: a few warm-up calls, then timed
calls, each measured by process_time and by the minor page faults that
resource.getrusage counts for the process.  Each call's CPU time is scaled
to the nominal host speed by bench/speed.py's HostSpeed probe, which runs
between calls, never inside one, as in bench/run.py, so the drift of a
shared host's speed divides out.  A process that has already
freed a large mapping has raised glibc's dynamic mmap threshold, which hides
the faults of later large temporaries, so the kernels never share one.
With --rounds N every kernel runs in N such processes, the kernels in
forward order in even rounds and in reverse order in odd ones, so a drift
of the host's speed over the run does not fall on one end of the list.

    PYTHONPATH=src python3 scripts/kernel_costs.py [--calls N] [--warmup N] [--rounds N]

prints one CSV row per kernel: name (quoted where it holds a comma), the
median over rounds of each round's median, first and third quartile of the
CPU ms per call, the least and the largest round median, and the median
over rounds of the minor page faults per call.  Each unpolished row is the
call of the same sign without the polish, so the difference is the polish's
cost per call and the unpolished row is the sampler's cost plus one frame.
The polish row times cones._polish_quaternion alone, call by call from the
next of POLISH_STARTS fixed starts, each the best of 4096 samples for a
unit-norm operator, the signs alternating; its histogram of steps and stop
reasons over every timed call goes to stderr after the table.  The
quadratic rows are Q on upper-triangle coordinates, the kernel that each
RK4 stage calls once, and the rk4_step row is one step of a stack of eight
trajectories, with per-row step factors as the flow core passes them.
The 1024-row rows split the Haar layer into one lambda2.HAAR_BLOCK block's
parts: gaussian_rows is the raw draw, the floor that the frame sampler and
the factor average share; haar_quaternions draws and normalizes a block;
hopf_values scores one raw block by the fixed 3x3 form of the frame
sampler; and moment is group_actions._moment_average on one block.
The record row checks and samples one trip-free block of 4 steps of 8
trajectories, with a sample callback that does nothing.  The two margin
rows show the fixed and the per-operator cost of the margin kernel that the
flow record calls once per block.
"""

import argparse
import csv
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from functools import partial
from time import process_time

import numpy as np

import halfpic
from halfpic import cones, curvature, flow, group_actions, lambda2

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from speed import HostSpeed  # noqa: E402


POLISH_ROW = "polish(4096)"
POLISH_STARTS = 8


def _polish_starts(rng):
    # (R, C, q) of each fixed polish start: q is the best of 4096 samples
    starts = []
    for k in range(POLISH_STARTS):
        r = curvature.random_bianchi(rng, norm=1.0)
        kf = cones._quartic_form(r, "+-"[k % 2])
        starts.append((r, cones._quartic_tensor(kf), cones._best_sample(kf, 4096, k)[0]))
    return starts


def _operators():
    # r and a stack of 32 operators, the first draws of default_rng(0), and
    # the generator after them, from which the polish starts are drawn
    rng = np.random.default_rng(0)
    r = curvature.random_bianchi(rng, norm=1.0)
    stack = np.stack([curvature.random_bianchi(rng, norm=1.0) for _ in range(32)])
    return r, stack, rng


def _r():
    return _operators()[0]


def _coords8():
    # upper-triangle coordinates of the stack's first eight operators
    return flow._coords(_operators()[1][:8])


def _polish():
    starts = itertools.cycle(_polish_starts(_operators()[2]))
    return lambda: cones._polish_quaternion(*next(starts))


def _haar_block():
    return lambda2.haar_quaternions(np.random.default_rng(0), lambda2.HAAR_BLOCK)


def _hopf_values():
    m = cones._hopf_form(cones._quartic_form(_r(), "+"))
    return partial(cones._hopf_values, m, lambda2._gaussian_rows(np.random.default_rng(0), lambda2.HAAR_BLOCK))


def _rk4_step():
    eight = _operators()[1][:8]
    coords = flow._coords(eight)
    h = np.full((8, 1), flow.default_dt(eight).min())
    out = np.empty_like(coords)
    return lambda: flow._rk4_step(coords, 0.5 * h, 0.25 * h, h / 6.0, out)


def _record():
    # the 32 operators as a block of 4 steps of 8 trajectories, none at its
    # last step; unit norms and no margin floor, so nothing trips
    block = flow._coords(_operators()[1]).reshape(4, 8, 21)
    idx, last, params = np.arange(8), np.full(8, 10), flow.FlowParams()
    return lambda: flow._record(block, idx, last, params, lambda *a: None)


def _kernels():
    """name -> zero-argument builder of that kernel's inputs, which returns
    the kernel as a zero-argument call, so a process builds only the inputs
    of the kernel it runs."""
    mi = cones.min_isotropic
    return {
        "min_isotropic(4096)": lambda: partial(mi, _r(), "+", samples=4096, seed=0),
        "min_isotropic(4096,-)": lambda: partial(mi, _r(), "-", samples=4096, seed=0),
        "min_isotropic(4096,unpolished)": lambda: partial(mi, _r(), "+", samples=4096, seed=0, polish=False),
        "min_isotropic(4096,-,unpolished)": lambda: partial(mi, _r(), "-", samples=4096, seed=0, polish=False),
        POLISH_ROW: _polish,
        "average(5e4)": lambda: partial(group_actions.average, _r(), "left", n=50_000, seed=0),
        "gaussian_rows(1024)": lambda: partial(lambda2._gaussian_rows, np.random.default_rng(0), lambda2.HAAR_BLOCK),
        "haar_quaternions(1024)": lambda: partial(lambda2.haar_quaternions, np.random.default_rng(0), lambda2.HAAR_BLOCK),
        "hopf_values(1024)": _hopf_values,
        "moment(1024)": lambda: partial(group_actions._moment_average, _r(), [_haar_block()], "left"),
        "invariance_probe(n=8)": lambda: partial(flow.invariance_probe, "ic_plus", n=8, seed=0),
        "integrate(10 steps)": lambda: partial(flow.integrate, _r(), flow.FlowParams(t_max=1e-2, dt=1e-3)),
        "quadratic(8 operators)": lambda: partial(flow._quadratic, _coords8(), flow._Q_TABLE),
        "quadratic(1 operator)": lambda: partial(flow._quadratic, _coords8()[:1], flow._Q_TABLE),
        "rk4_step(8 operators)": _rk4_step,
        "record(4 steps x 8)": _record,
        "margins(1 operator)": lambda: partial(cones._margins, _r()[None]),
        "margins(32 operators)": lambda: partial(cones._margins, _operators()[1]),
    }


def measure(name, calls, warmup):
    """CPU ms quartiles, at the nominal host speed, and minor faults per call
    of one kernel, in this process; for the polish row also the count of
    each "steps stop" outcome of the timed calls.  The faults are counted
    around the calls alone, so the host-speed probe adds none."""
    kernel = _kernels()[name]()
    for _ in range(warmup):
        kernel()
    speed = HostSpeed()
    speed.sample(2)
    timed, faults, outcomes = [], 0, Counter()
    for _ in range(calls):
        speed.tick()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = process_time()
        out = kernel()
        timed.append((start, process_time() - start))
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        if name == POLISH_ROW:
            outcomes[f"{out[2]} {out[3]}"] += 1
    speed.sample()
    p25, p50, p75 = 1e3 * np.percentile(speed.normalize(timed), [25, 50, 75])
    return {"cpu_ms_p50": p50, "cpu_ms_p25": p25, "cpu_ms_p75": p75,
            "faults_per_call": faults / calls, "outcomes": dict(outcomes)}


def _histogram(outcomes):
    # "2 gradient: 40, 3 no_descent: 10", fewest steps first
    items = sorted(outcomes.items(), key=lambda kv: (int(kv[0].split()[0]), kv[0]))
    return ", ".join(f"{k}: {n}" for k, n in items)


def main(argv=None):
    names = list(_kernels())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--calls", type=int, default=50, help="timed calls per kernel")
    ap.add_argument("--warmup", type=int, default=5, help="untimed calls first")
    ap.add_argument("--rounds", type=int, default=1, help="fresh processes per kernel")
    ap.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.calls < 1 or args.warmup < 0 or args.rounds < 1:
        ap.error("--calls and --rounds must be positive and --warmup nonnegative")
    if args.child:
        print(json.dumps(measure(args.child, args.calls, args.warmup)))
        return 0

    # the child imports the same halfpic as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfpic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    rounds = {name: [] for name in names}
    for k in range(args.rounds):
        for name in names if k % 2 == 0 else names[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", name,
                   "--calls", str(args.calls), "--warmup", str(args.warmup)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            rounds[name].append(json.loads(proc.stdout))
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["kernel", "cpu_ms_p50", "cpu_ms_p25", "cpu_ms_p75",
                  "round_p50_min", "round_p50_max", "minor_faults_per_call"])
    for name, res in rounds.items():
        med = {key: statistics.median(r[key] for r in res)
               for key in ("cpu_ms_p50", "cpu_ms_p25", "cpu_ms_p75", "faults_per_call")}
        p50s = [r["cpu_ms_p50"] for r in res]
        ms = [f"{v:.4f}" for v in (med["cpu_ms_p50"], med["cpu_ms_p25"], med["cpu_ms_p75"], min(p50s), max(p50s))]
        out.writerow([name, *ms, f"{med['faults_per_call']:.1f}"])
    total = sum((Counter(r["outcomes"]) for r in rounds[POLISH_ROW]), Counter())
    sys.stderr.write(f"# {POLISH_ROW} steps and stop over {total.total()} calls: {_histogram(total)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
