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

A change that moves results by rounding alone is checked with

    PYTHONPATH=src python3 scripts/golden_outputs.py --compare OLD NEW

which requires every file to be byte-equal except a JSON file holding an
operator.matrix: there every number may move by at most COMPARE_TOL * (1 + |R|),
with R the old matrix, and everything else must be equal.  It prints the worst
such move of each file and every other difference, and exits 1 on any failure.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from halfpic import cli, curvature, group_actions

FLOW_ARGS = ["--t-max", "0.02", "--dt", "1e-3"]
AVERAGE_SAMPLES = "2000"
COMPARE_TOL = 1e-14


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


def _worst_move(a, b, scale):
    # worst |a - b| / scale over the numbers of two JSON trees, or None when
    # anything else (keys, lengths, strings, integers, types) differs
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) / scale
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        parts = [_worst_move(a[k], b[k], scale) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        parts = [_worst_move(x, y, scale) for x, y in zip(a, b)]
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def _operator_move(old, new):
    # worst relative move of a JSON file holding operator.matrix, else None
    try:
        a, b = json.loads(old), json.loads(new)
        scale = 1.0 + float(np.linalg.norm(np.asarray(a["operator"]["matrix"], dtype=float)))
    except (ValueError, TypeError, KeyError):
        return None
    return _worst_move(a, b, scale)


def compare(old, new):
    """Compare two output trees; print the differences, return the exit code."""
    old, new = Path(old), Path(new)
    files = {
        side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
        for side, root in (("old", old), ("new", new))
    }
    failed = 0
    for rel in sorted(files["old"] ^ files["new"]):
        print(f"FAIL {rel}: only in {'old' if rel in files['old'] else 'new'}")
        failed += 1
    for rel in sorted(files["old"] & files["new"]):
        a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
        if a == b:
            continue
        move = _operator_move(a, b) if rel.suffix == ".json" else None
        if move is None:
            print(f"FAIL {rel}: differs")
            failed += 1
        elif move > COMPARE_TOL:
            print(f"FAIL {rel}: worst |delta|/(1+|R|) {move:.3e} above {COMPARE_TOL:g}")
            failed += 1
        else:
            print(f"ok   {rel}: worst |delta|/(1+|R|) {move:.3e}")
    print(f"{failed} of {len(files['old'] | files['new'])} files differ beyond rounding")
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("outdir", nargs="?", help="directory to write (created if missing)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two output directories instead of writing one")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.outdir is None:
        ap.error("give OUTDIR or --compare OLD NEW")
    write_all(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
