#!/usr/bin/env python3
"""Write the output of every CLI subcommand into a directory, for diffing.

Fixed seeded operators (random unit norm, norm 1e6, norm 1e-3, cp2, the
identity and one operator eligible for the maximality witness) go through
classify, decompose, witness, average (both factors, --out), and flow
(CSV on stdout, then --out and --snapshots-out); all six models are written
with --out and all five verify suites run at their defaults.  Sizes are
fixed and small, so a run takes a few seconds.  Every invocation leaves a
.txt file with its exit code, stdout and stderr next to the files it wrote.  Two checkouts produce
the same bytes exactly when `diff -r` of their output directories is empty:

    PYTHONPATH=src python3 scripts/golden_outputs.py OUTDIR
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from halfpic import cli, curvature, group_actions

FLOW_ARGS = ["--t-max", "0.02", "--dt", "1e-3"]
AVERAGE_SAMPLES = "2000"


def _witness_eligible():
    # first unit-norm random operator whose scal+W+ projection is clearly
    # outside the plus cone, with an untied lowest pair (a nontrivial lift)
    seed = 0
    while True:
        r = curvature.random_bianchi(np.random.default_rng(seed), norm=1.0)
        seed += 1
        if curvature.scalar(r) <= 0.1:
            continue
        e = group_actions.exact_projection(r, "left")
        mu = np.linalg.eigvalsh(curvature.plus_block(e))
        if mu[0] + mu[1] < -0.01 and mu[1] - mu[0] > 0.01:
            return r


def operators():
    """The named input operators, in a fixed order."""
    return {
        "random": curvature.random_bianchi(np.random.default_rng(1), norm=1.0),
        "norm1e6": curvature.random_bianchi(np.random.default_rng(2), norm=1e6),
        "norm1e-3": curvature.random_bianchi(np.random.default_rng(3), norm=1e-3),
        "cp2": curvature.model("cp2", 12.0),
        "identity": np.eye(6),
        "witness_eligible": _witness_eligible(),
    }


def _run(record, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record.write_text(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def write_all(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in curvature.MODEL_NAMES:
        d = outdir / "models"
        d.mkdir(exist_ok=True)
        _run(d / f"{name}.txt", ["models", "--name", name, "--out", str(d / f"{name}.json")])
    for name, r in operators().items():
        d = outdir / name
        d.mkdir(exist_ok=True)
        op = str(d / "input.json")
        curvature.write_operator(r, op)
        for cmd in ("classify", "decompose", "witness"):
            _run(d / f"{cmd}.txt", [cmd, "--input", op])
        for factor in group_actions.FACTORS:
            _run(d / f"average_{factor}.txt", [
                "average", "--input", op, "--factor", factor,
                "--samples", AVERAGE_SAMPLES, "--seed", "3",
                "--out", str(d / f"average_{factor}.json"),
            ])
        _run(d / "flow_stdout.txt", ["flow", "--input", op, *FLOW_ARGS])
        _run(d / "flow_files.txt", [
            "flow", "--input", op, *FLOW_ARGS,
            "--out", str(d / "flow.csv"), "--snapshots-out", str(d / "flow_snapshots.json"),
        ])
    d = outdir / "verify"
    d.mkdir(exist_ok=True)
    for suite in sorted(cli._SUITES):
        _run(d / f"{suite}.txt", ["verify", "--suite", suite])


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("outdir", help="directory to write (created if missing)")
    args = ap.parse_args(argv)
    write_all(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
