"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

Every workload runs at a tiny size, untraced and traced, and must pass its
reference checks and report every metric that BENCHMARK.json names, with its
unit.  Each planted wrong kernel (at least one per workload) must show up in
fail_frac, which proves that each gate can fail.  Finally a directory that holds only the
benchmark must make run.py exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run
from workloads import TINY_SIZES, WORKLOADS

SECONDS = 0.5
REPORT_METRICS = ("setup_s", "throughput", "call_p50_ms", "call_tail_ms", "peak_mem_mb", "fail_frac")


def _wrong_min_isotropic(hp):
    hp.cones.min_isotropic = lambda *a, **k: 1.0


def _wrong_shift(hp):
    # seeds land one unit outside the cone, so every probe sees an escape
    shift = hp.cones.shift_to_margin
    hp.cones.shift_to_margin = lambda r, cone, target: shift(r, cone, target - 1.0)


def _inflated_margins(hp):
    # the flow's margin kernel reads every margin one unit too high
    fast = hp.flow._fast_margins
    hp.flow._fast_margins = lambda r: {c: m + 1.0 for c, m in fast(r).items()}


def _wrong_haar(hp):
    # identity rotations only: the "average" returns the operator unchanged
    hp.lambda2.haar_quaternions = lambda rng, n: np.tile([1.0, 0.0, 0.0, 0.0], (int(n), 1))


def _wrong_membership(hp):
    membership = hp.cones.membership
    hp.cones.membership = lambda r, tol=None: membership(-r, tol)


WRONG_KERNELS = {
    "iso_frames": (_wrong_min_isotropic,),
    "flow_probe": (_wrong_shift, _inflated_margins),
    "factor_avg": (_wrong_haar,),
    "cli_ops": (_wrong_membership,),
}


def _units(spec):
    return {m["name"]: m["unit"] for m in spec}


def check_untraced(root, bench, name):
    res = run.run(name, 3, SECONDS, False, root, sizes=TINY_SIZES, setups=2)
    text = "\n".join(run.report(res, run.environment(root)))
    line = json.loads(run.result_line(res))
    want = _units(bench["end_to_end"])
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    problems = []
    if got != want:
        problems.append(f"metrics {got} != BENCHMARK.json {want}")
    if not line["correct"] or line["failed"]:
        problems.append(f"{line['failed']} of {line['attempted']} items failed: {res['errors']}")
    if any(v["value"] <= 0 for v in line["metrics"].values()):
        problems.append(f"a metric is not positive: {line['metrics']}")
    for metric in REPORT_METRICS:
        unit = "ratio" if metric == "fail_frac" else want[metric]
        if not any(row.split()[1:2] == [metric] and unit in row.split() for row in text.splitlines()):
            problems.append(f"report lacks {metric} with unit {unit}")
    return problems


def check_traced(root, bench, name):
    res = run.run(name, 4, SECONDS, True, root, sizes=TINY_SIZES)
    line = json.loads(run.result_line(res))
    want = _units(bench["per_layer"])
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    problems = []
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"per-layer metrics differ: missing {missing}, extra {extra}")
    if not line["correct"]:
        problems.append(f"traced run failed checks: {res['errors']}")
    if not os.path.isfile(os.path.join(root, run.OUT_DIR, f"spans-{name}-seed4.json")):
        problems.append("no spans file written")
    layer = res["metrics"]
    public = {"iso_frames": "cones.min_isotropic", "flow_probe": "flow.invariance_probe",
              "factor_avg": "group_actions.average", "cli_ops": "cli.main"}[name]
    if layer[f"{public}.calls"] != res["calls"]:
        problems.append(f"{public}.calls {layer[f'{public}.calls']} != {res['calls']} loop calls")
    return problems


def check_wrong_kernel(root, name, patch):
    res = run.run(name, 5, SECONDS, False, root, sizes=TINY_SIZES, setups=1, patch=patch)
    if res["fail_frac"] > 0 and not json.loads(run.result_line(res))["correct"]:
        return []
    return [f"planted {patch.__name__} went unnoticed (fail_frac 0)"]


def check_bare_directory(root):
    out_dir = os.path.join(root, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_ops", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode != 0 and '"correct"' not in p.stdout:
        return []
    return [f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    cases = []
    for name in WORKLOADS:
        cases.append((f"{name} untraced", lambda n=name: check_untraced(root, bench, n)))
        cases.append((f"{name} traced", lambda n=name: check_traced(root, bench, n)))
        for patch in WRONG_KERNELS[name]:
            cases.append((f"{name} {patch.__name__.lstrip('_')}",
                          lambda n=name, p=patch: check_wrong_kernel(root, n, p)))
    cases.append(("bare directory", lambda: check_bare_directory(root)))
    failed = 0
    for label, case in cases:
        problems = case()
        failed += bool(problems)
        print(("FAIL " if problems else "PASS ") + label + "".join("\n  " + p for p in problems))
    print(f"{len(cases) - failed}/{len(cases)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
