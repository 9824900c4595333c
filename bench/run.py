"""End-to-end benchmark of halfpic's public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload iso_frames --seed 1 --seconds 20 --trace 0

One process with one sequential caller drives halfpic in a closed loop: the
next call starts only when the previous one has returned and been checked
against the benchmark's own reference route (``reference.py``).  halfpic is
imported from ``./src``; without it the benchmark exits with code 2.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics: ``setup_s``, ``throughput``, ``call_p50_ms``,
``call_tail_ms``, ``peak_mem_mb`` and ``pass_frac``.  Their times are CPU
seconds of the process (see ``attempt``), normalized by a host-speed probe
that runs between calls (``speed.py``) so that the drift of a shared host
divides out; the raw times are in the report.
With ``--trace 1`` the same calls run in blocks, untraced and with every
layer boundary wrapped (``spans.py``) in turn; the metrics are then the
per-layer metrics, in raw CPU times.  The lines before
it are a readable report, and a record with the run environment goes to
``.bench_out/``.  ``interactions.json`` says which layer metric should move
which end-to-end metric on which workload.
"""

from __future__ import annotations

import os

# One process with one caller: BLAS is pinned to one thread before numpy
# loads, so timings do not depend on how busy the other cores are.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from speed import HostSpeed  # noqa: E402
from workloads import DEFAULT_SIZES, WORKLOADS  # noqa: E402

MODULES = ("lambda2", "curvature", "cones", "flow", "group_actions", "cli")
OUT_DIR = ".bench_out"
SETUPS = 7  # set-ups per untraced run; setup_s is their median
# Calls in the tracemalloc pass; a probe's peak follows its longest trajectory,
# so flow_probe takes the maximum over more calls.
MEMORY_CALLS = {"iso_frames": 8, "flow_probe": 12, "factor_avg": 2, "cli_ops": 10}
BLOCK_S = 0.25  # length of one untraced block in the traced run
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_mem_mb": "MB",
    "pass_frac": "ratio",
}


class MissingSource(RuntimeError):
    pass


def import_halfpic(src):
    """Import halfpic afresh from src, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "halfpic" or m.startswith("halfpic.")]:
        del sys.modules[name]
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    package = importlib.import_module("halfpic")
    where = os.path.realpath(os.path.dirname(package.__file__))
    if where != os.path.realpath(os.path.join(src, "halfpic")):
        raise MissingSource(f"halfpic was imported from {where}, not from {src}")
    mods = {m: importlib.import_module(f"halfpic.{m}") for m in MODULES}
    return SimpleNamespace(package=package, MODULES=MODULES, **mods)


class Tally:
    """Items attempted and failed, with the first few failure tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def count(self, items, ok, error=None):
        self.attempted += items
        if not ok:
            self.failed += items
            if len(self.errors) < 3:
                self.errors.append(error or "result failed its reference check")


def attempt(wl, args, **kw):
    """One timed public call; returns (output, error text, start, seconds).

    Times are CPU seconds of this process: on a shared host other tenants'
    processes preempt ours for milliseconds at a time, and wall-clock time
    would count their slices as halfpic's.  halfpic makes no threads and
    does no blocking I/O beyond page-cache writes, so for it the two agree
    up to that preemption.
    """
    t0 = process_time()
    try:
        out, error = wl.call(args, **kw), None
    except Exception:
        out, error = None, traceback.format_exc()
    return out, error, t0, process_time() - t0


def settle(wl, args, out, error, tally):
    ok = False
    if error is None:
        try:
            ok = bool(wl.check(args, out))
        except Exception:
            error = traceback.format_exc()
    tally.count(wl.items_per_call, ok, error)


def serve(wl, i, tally):
    """Call i, checked; returns (start, seconds)."""
    args = wl.args(i)
    out, error, t0, seconds = attempt(wl, args)
    settle(wl, args, out, error, tally)
    return t0, seconds


def closed_loop(wl, start, seconds, tally, speed):
    """(start, seconds) of calls start, start+1, ... until seconds have passed.

    The host-speed probe runs between calls, never inside one.
    """
    timed = []
    deadline = perf_counter() + seconds
    i = start
    while not timed or perf_counter() < deadline:
        speed.tick()
        timed.append(serve(wl, i, tally))
        i += 1
    speed.sample()
    return timed


def throughput(wl, latencies):
    """Items completed per second spent inside the public calls."""
    return wl.items_per_call * len(latencies) / sum(latencies)


def memory_pass(wl, start, calls, tally):
    """Largest allocation peak of one call above the level before it, bytes."""
    peak = 0
    tracemalloc.start()
    try:
        for i in range(start, start + calls):
            args = wl.args(i)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out, error, _, _ = attempt(wl, args)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            settle(wl, args, out, error, tally)
    finally:
        tracemalloc.stop()
    return peak


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(root),
        "load": "one process, one sequential caller (closed loop)",
    }


def git_sha(root):
    """HEAD commit read from ./.git, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(name, seed, sizes, workdir, src, tally, patch):
    """Import halfpic, make the inputs, write operator files, warm up.

    Returns (start, seconds, halfpic modules, workload).
    """
    t0 = process_time()
    hp = import_halfpic(src)
    if patch is not None:
        patch(hp)
    wl = WORKLOADS[name](hp, seed, sizes, workdir)
    for i in range(wl.warm_up_calls):
        serve(wl, i, tally)
    return t0, process_time() - t0, hp, wl


def run(name, seed, seconds, trace, root, sizes=DEFAULT_SIZES, setups=SETUPS, patch=None):
    """Run one workload; returns a dict of metrics plus report details.

    patch, when given, is applied to every fresh halfpic import; the
    self-tests use it to plant a wrong kernel.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "halfpic", "__init__.py")):
        raise MissingSource(f"no halfpic source tree under {src}")
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    tally = Tally()
    speed = HostSpeed()
    try:
        timed_setups = []
        for _ in range(1 if trace else setups):
            speed.sample(2)
            t0, t, hp, wl = set_up(name, seed, sizes, workdir, src, tally, patch)
            timed_setups.append((t0, t))
        speed.sample(2)
        setup_times = speed.normalize(timed_setups)
        # Everything alive after set-up moves out of the collector's reach, so
        # a full collection scans only what the timed calls allocate, not the
        # imports and inputs; otherwise the few full collections of a run
        # decide call_tail_ms.
        gc.collect()
        gc.freeze()
        start = wl.warm_up_calls
        res = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "item": wl.item, "setup_times_s": setup_times,
               "raw_setup_times_s": [t for _, t in timed_setups]}
        if trace:
            layer, calls = traced(wl, hp, start, seconds, tally, out_dir, name, seed)
            res["calls"] = calls
            res["metrics"] = {k: v for k, (v, _) in layer.items()}
            res["units"] = {k: unit for k, (_, unit) in layer.items()}
        else:
            timed = closed_loop(wl, start, seconds, tally, speed)
            latencies = speed.normalize(timed)
            raw = [t for _, t in timed]
            peak = memory_pass(wl, start, min(MEMORY_CALLS[name], len(timed)), tally)
            value, pct, beyond = tail(latencies)
            res["calls"] = len(timed)
            res["tail"] = {"percentile": pct, "beyond": beyond, "samples": len(timed)}
            res["metrics"] = {
                "setup_s": statistics.median(setup_times),
                "throughput": throughput(wl, latencies),
                "call_p50_ms": 1e3 * statistics.median(latencies),
                "call_tail_ms": 1e3 * value,
                "peak_mem_mb": peak / 1e6,
            }
            res["units"] = END_TO_END_UNITS
            res["host_speed"] = {"probes": len(speed.seconds),
                                 "median_factor": speed.median_factor()}
            res["raw"] = {
                "setup_s": statistics.median(res["raw_setup_times_s"]),
                "throughput": throughput(wl, raw),
                "call_p50_ms": 1e3 * statistics.median(raw),
                "call_tail_ms": 1e3 * tail(raw)[0],
            }
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    res["attempted"], res["failed"], res["errors"] = tally.attempted, tally.failed, tally.errors
    res["fail_frac"] = tally.failed / tally.attempted
    if not trace:
        res["metrics"]["pass_frac"] = 1.0 - res["fail_frac"]
    return res


def traced(wl, hp, start, seconds, tally, out_dir, name, seed):
    """Blocks of the same calls run untraced and traced, in turn.

    The first untraced block runs for BLOCK_S and fixes the block size; each
    later block runs its calls untraced and then traced, or traced and then
    untraced, alternately.  Host drift then cancels in each block's ratio, and
    trace.overhead_frac is the median of the ratios.  On iso_frames each
    untraced call is followed by its polish=False twin on the same input, and
    cones.polish_share is the median over calls of 1 - twin / call.
    """
    rec = spans.Recorder()

    def plain_calls(indices):
        out = []
        for i in indices:
            out.append(serve(wl, i, tally)[1])
            if name == "iso_frames":
                polish.append(1.0 - attempt(wl, wl.args(i), polish=False)[3] / out[-1])
        return out

    def traced_calls(indices):
        rec.install(hp)
        try:
            out = []
            for i in indices:
                rec.item = i
                out.append(serve(wl, i, tally)[1])
            return out
        finally:
            rec.restore()

    polish, lat_plain, lat_traced, overhead = [], [], [], []
    deadline = perf_counter() + seconds
    block_end = perf_counter() + BLOCK_S
    plain, i = [], start
    while not plain or perf_counter() < block_end:
        plain += plain_calls([i])
        i += 1
    size = i - start
    traced_ = traced_calls(range(start, i))
    while True:
        lat_plain += plain
        lat_traced += traced_
        overhead.append(1.0 - sum(plain) / sum(traced_))
        if perf_counter() >= deadline:
            break
        indices = range(i, i + size)
        i += size
        if len(overhead) % 2:
            traced_ = traced_calls(indices)
            plain = plain_calls(indices)
        else:
            plain = plain_calls(indices)
            traced_ = traced_calls(indices)
    rec.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))
    polish_share = statistics.median(polish) if polish else 0.0
    layer = layer_metrics(rec, len(lat_traced), getattr(wl, "err_max", 0.0), polish_share)
    layer["trace.throughput_untraced"] = (throughput(wl, lat_plain), "1/s")
    layer["trace.throughput_traced"] = (throughput(wl, lat_traced), "1/s")
    layer["trace.overhead_frac"] = (statistics.median(overhead), "ratio")
    return layer, len(lat_traced)


def layer_metrics(rec, calls, err_max, polish_share):
    """Per-layer metrics, name -> (value, unit), from one traced phase."""
    totals = rec.layer_totals()
    c = rec.counters
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = (t["calls"], "count")
        out[f"{name}.self_ms"] = (1e3 * t["self_s"] / t["calls"] if t["calls"] else 0.0, "ms")
        out[f"{name}.fails"] = (t["fails"], "count")
    for name in ("lambda2.haar_quaternions", "lambda2._quat_to_rot_batch", "lambda2._induced_map_batch"):
        out[f"{name}.rows"] = (c[f"{name}.rows"], "count")
    out["curvature.validations_per_call"] = (
        totals["curvature.require_bianchi_valid"]["calls"] / calls, "ratio")
    samples = c["group_actions.average.samples"]
    avg_s = totals["group_actions.average"]["total_s"]
    out["group_actions.sample_ns"] = (1e9 * avg_s / samples if samples else 0.0, "ns")
    out["cones.polish_share"] = (polish_share, "ratio")
    out["cones.min_isotropic.err_max"] = (err_max, "1")
    steps = c["flow.integrate.rk4_steps"]
    out["flow.rk4_steps"] = (steps, "count")
    out["flow.step_us"] = (1e6 * totals["flow.integrate"]["self_s"] / steps if steps else 0.0, "us")
    trajectories = c["flow.integrate.trajectories"]
    out["flow.completed_frac"] = (
        c["flow.integrate.completed"] / trajectories if trajectories else 0.0, "ratio")
    out["flow.trajectory_csv.bytes"] = (c["flow.trajectory_csv.bytes"], "bytes")
    out["cli.main.exit_nonzero"] = (c["cli.main.exit_nonzero"], "count")
    out["cli.main.bytes_out"] = (c["cli.main.bytes_out"], "bytes")
    return out


def report(res, env):
    """Readable report lines; the untraced run also shows fail_frac."""
    lines = [f"# halfpic benchmark: workload={res['workload']} seed={res['seed']} "
             f"seconds={res['seconds']} trace={res['trace']} item={res['item']}",
             f"# env {json.dumps(env, sort_keys=True)}"]
    rows = [(k, v, res["units"][k]) for k, v in res["metrics"].items()]
    if not res["trace"]:
        rows.append(("fail_frac", res["fail_frac"], "ratio"))
    for k, v, unit in rows:
        note = ""
        if k == "setup_s":
            note = f"median of {len(res['setup_times_s'])} set-ups"
        elif k == "call_p50_ms":
            note = f"{res['calls']} calls"
        elif k == "call_tail_ms":
            t = res["tail"]
            note = f"p{t['percentile']:.2f}, {t['beyond']} of {t['samples']} calls beyond"
        elif k == "fail_frac":
            note = f"{res['failed']} of {res['attempted']} items ({res['item']}s)"
        if k in res.get("raw", {}):
            note = f"raw {res['raw'][k]:.6g}; {note}".rstrip("; ")
        lines.append(f"# {k:<44} {v:>16.6g} {unit:<6} {note}".rstrip())
    if "host_speed" in res:
        h = res["host_speed"]
        lines.append(f"# times are normalized to the nominal host speed; raw times x "
                     f"{h['median_factor']:.4f} in the median, from {h['probes']} probes")
    return lines


def result_line(res):
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    root = os.getcwd()
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except MissingSource as exc:
        sys.stderr.write(f"error: {exc}; run from the root of a halfpic checkout\n")
        return 2
    env = environment(root)
    for err in res["errors"]:
        sys.stderr.write(err.rstrip() + "\n")
    record = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({**res, "env": env}, fh, indent=1)
    print("\n".join(report(res, env)))
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
