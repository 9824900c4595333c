#!/usr/bin/env python3
"""Paired A/B benchmark of this checkout against a parent revision.

    python3 scripts/ab_bench.py PARENT_REV [--workloads W ...] [--pairs N]
        [--seconds S] [--seed N] [--out FILE]

PARENT_REV is exported from the local git repository with `git archive`, and
this checkout's src/ is copied beside it, both into one temporary directory
and both without bytecode caches, so the two sides import from equally fresh
trees.  This checkout's bench/run.py then runs every workload on both trees
(`--trace 0`, one process per run) in N pairs.  Even pairs run the parent
first and odd pairs the change first; both runs of a pair use the same seed,
SEED + pair.  One more pair per workload runs the parent against itself
(A/A, seed SEED + N) and reads the noise floor of the same command.  One
progress line per run goes to stderr.

The JSON written to --out (stdout by default) has a fixed schema:

    command, parent, change, host, pairs, seconds, order,
    summary: {workload: {metric: {unit, better, parent_median,
        parent_q1_q3, change_median, change_q1_q3, change_wins, pairs,
        hl_shift, sign_test_p, aa_rel_diff}}},
    runs: {workload: [{seed, first, parent, change}]},
    aa: {workload: {seed, parent, parent_again}}

Each side of a run holds correct, attempted, failed and one value per
end-to-end metric of BENCHMARK.json.  change_wins counts the pairs where the
change is strictly better in the metric's direction; quartiles are numpy's
linear-interpolation percentiles 25 and 75.  hl_shift is the Hodges-Lehmann
shift of the pairs: the median of the Walsh averages (d_i + d_j) / 2, i <= j,
of the per-pair differences d = change - parent, in the metric's unit.
sign_test_p is the two-sided binomial sign test of those differences: the
chance that a fair coin splits the untied pairs at least as unevenly, 1.0
when every pair ties.  aa_rel_diff is (parent_again - parent) / parent of
the A/A pair.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload W --seed N --seconds S --trace 0"
ORDER = "alternating: even pairs run the parent first, odd pairs the change first; one seed per pair"


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev, dest):
    """src/ of rev, by git archive, under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def _bench_once(tree, workload, seed, seconds, metrics):
    """One run of this checkout's bench/run.py on the tree, as a flat dict."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    out = {k: line[k] for k in ("correct", "attempted", "failed")}
    out.update({m: line["metrics"][m]["value"] for m in metrics})
    sys.stderr.write(f"# {workload} seed {seed} {os.path.basename(tree)}: "
                     f"throughput {out['throughput']:.6g}, correct {out['correct']}\n")
    return out


def _hl_shift(d):
    """Median of the Walsh averages (d_i + d_j) / 2, i <= j."""
    i, j = np.triu_indices(len(d))
    d = np.asarray(d, dtype=float)
    return float(np.median((d[i] + d[j]) / 2.0))


def _sign_test_p(d):
    """Two-sided binomial sign test of the nonzero differences."""
    n = sum(x != 0 for x in d)
    k = min(sum(x > 0 for x in d), sum(x < 0 for x in d))
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n)


def _summary(runs, aa, spec):
    out = {}
    for m in spec:
        parent = [run["parent"][m["name"]] for run in runs]
        change = [run["change"][m["name"]] for run in runs]
        diff = [c - p for p, c in zip(parent, change)]
        sign = 1.0 if m["better"] == "higher" else -1.0
        first, again = aa["parent"][m["name"]], aa["parent_again"][m["name"]]
        out[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": float(np.median(parent)),
            "parent_q1_q3": np.percentile(parent, [25, 75]).tolist(),
            "change_median": float(np.median(change)),
            "change_q1_q3": np.percentile(change, [25, 75]).tolist(),
            "change_wins": sum(sign * x > 0 for x in diff),
            "pairs": len(runs),
            "hl_shift": _hl_shift(diff),
            "sign_test_p": _sign_test_p(diff),
            "aa_rel_diff": (again - first) / first if first else 0.0,
        }
    return out


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_REV", help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--pairs", type=int, default=10, help="A/B pairs per workload")
    ap.add_argument("--seconds", type=float, default=25.0, help="--seconds of each run")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        ap.error("--pairs and --seconds must be positive and --seed nonnegative")

    spec = bench["end_to_end"]
    metrics = [m["name"] for m in spec]
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    doc = {
        "command": COMMAND,
        "parent": parent_sha,
        "change": {"head": _git("rev-parse", "HEAD"),
                   "src_dirty": bool(_git("status", "--porcelain", "--", "src"))},
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": np.__version__},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "order": ORDER,
        "summary": {}, "runs": {}, "aa": {},
    }
    tmp = tempfile.mkdtemp(prefix="ab-bench-")
    try:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        _export(parent_sha, trees["parent"])
        shutil.copytree(ROOT / "src", os.path.join(trees["change"], "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for workload in args.workloads:
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = _bench_once(trees[side], workload, seed, args.seconds, metrics)
                runs.append(run)
            seed = args.seed + args.pairs
            aa = {"seed": seed}
            for side in ("parent", "parent_again"):
                aa[side] = _bench_once(trees["parent"], workload, seed, args.seconds, metrics)
            doc["runs"][workload], doc["aa"][workload] = runs, aa
            doc["summary"][workload] = _summary(runs, aa, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
