"""The four benchmark workloads.

Each workload makes its inputs from the workload seed at set-up, then serves
call ``i`` of a closed loop through three steps: ``args(i)`` picks the inputs
(untimed), ``call(args)`` makes one public halfpic call (timed), and
``check(args, out)`` verifies the result against the reference routes in
``reference.py`` (untimed).  Calls look up the halfpic function on its module
at call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import reference as ref

DEFAULT_SIZES = {
    "iso_samples": 4096,
    "iso_pool": 1024,
    "probe_n": 8,
    "avg_n": 50_000,
    "avg_pool": 32,
    "cli_pool": 16,
    "cli_flow_steps": 10,
}

# Tiny sizes for the self-tests: every path runs, in well under a second.
TINY_SIZES = {
    "iso_samples": 256,
    "iso_pool": 8,
    "probe_n": 2,
    "avg_n": 2_000,
    "avg_pool": 4,
    "cli_pool": 4,
    "cli_flow_steps": 4,
}

CSV_HEADER = "t,scal,margin_scal,margin_icplus,margin_icminus,margin_ic,norm"
MODELS = ("sphere", "cp2", "cp2bar", "s3xr", "s2xs2", "kaehler_wplus")
MODEL_SCALES = (12.0, 3.5, 1.0, 7.25, 0.5)
CONES = ("scal", "ic_plus", "ic_minus", "ic")


class Workload:
    name = ""
    item = ""
    items_per_call = 1
    warm_up_calls = 2

    def __init__(self, hp, seed, sizes, workdir):
        self.hp = hp
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.basis = ref.Basis(hp.lambda2)
        self.rng = np.random.default_rng((self.seed, sum(map(ord, self.name))))


class IsoFrames(Workload):
    """Frame search plus polish of cones.min_isotropic on unit-norm operators.

    Signs alternate; of every four operators the last two are shifted to
    within 1e-6 of the matching half-cone boundary.
    """

    name = "iso_frames"
    item = "operator"
    warm_up_calls = 4

    def __init__(self, *a):
        super().__init__(*a)
        self.err_max = 0.0
        self.pool = []
        for k in range(self.sizes["iso_pool"]):
            sign = "+-"[k % 2]
            r = self.basis.random_unit_bianchi(self.rng)
            if k % 4 >= 2:
                r = self.basis.shift_to_two_positive(r, sign, self.rng.uniform(-1e-6, 1e-6))
            self.pool.append((r, sign, 2.0 * self.basis.two_positive(r, sign)))

    def args(self, i):
        return self.pool[i % len(self.pool)] + (i,)

    def call(self, args, polish=True):
        r, sign, _, k = args
        return self.hp.cones.min_isotropic(
            r, sign, samples=self.sizes["iso_samples"], seed=k, polish=polish
        )

    def check(self, args, out):
        want = args[2]
        err = abs(out - want)
        self.err_max = max(self.err_max, err)
        signs_agree = abs(want) / 2.0 <= ref.BOUNDARY_BAND or np.sign(out) == np.sign(want)
        return err <= ref.ISO_ERR_TOL and bool(signs_agree)


class FlowProbe(Workload):
    """flow.invariance_probe over all four cones with default parameters."""

    name = "flow_probe"
    item = "trajectory"

    def __init__(self, *a):
        super().__init__(*a)
        self.items_per_call = self.sizes["probe_n"]

    def args(self, i):
        return CONES[i % len(CONES)], self.seed * 1_000_000 + i

    def call(self, args):
        cone, probe_seed = args
        return self.hp.flow.invariance_probe(cone, n=self.sizes["probe_n"], seed=probe_seed)

    def check(self, args, out):
        """Invariance, plus the bound the seeds give from the other side.

        The margins in the report come from the flow's own margin kernel, so
        a floor alone would pass a kernel that inflates them.  The first
        round(n/2) seeds start at a margin in [0, 1e-6] by the probe's
        contract, and a trajectory's minimum is at most its start margin.
        """
        n = self.sizes["probe_n"]
        minima = np.asarray(out.trajectory_minima)
        return (
            out.cone == args[0]
            and out.n == n
            and sum(out.terminations.values()) == n
            and out.min_margin_normalized >= ref.PROBE_FLOOR
            and minima.shape == (n,)
            and out.min_margin == minima.min()
            and bool(np.all(minima[: round(n / 2)] <= ref.PROBE_START_CEILING))
        )


class FactorAvg(Workload):
    """group_actions.average with left/right alternating at a size whose
    stacked induced maps exceed the L2 cache several times over."""

    name = "factor_avg"
    item = "sample"

    def __init__(self, *a):
        super().__init__(*a)
        self.items_per_call = self.sizes["avg_n"]
        self.pool = [self.basis.random_unit_bianchi(self.rng) for _ in range(self.sizes["avg_pool"])]

    def args(self, i):
        return self.pool[i % len(self.pool)], ("left", "right")[i % 2], i

    def call(self, args):
        r, factor, k = args
        return self.hp.group_actions.average(r, factor, n=self.sizes["avg_n"], seed=k)

    def check(self, args, out):
        r, factor, _ = args
        dist = float(np.linalg.norm(out - self.basis.projection(r, factor)))
        return dist <= 18.0 / math.sqrt(self.sizes["avg_n"])


class CliOps(Workload):
    """In-process cli.main over operator files written at set-up: classify,
    decompose, witness, models --out and a short flow --out, in rotation."""

    name = "cli_ops"
    item = "invocation"
    kinds = ("classify", "decompose", "witness", "models", "flow")
    warm_up_calls = len(kinds)

    def __init__(self, *a):
        super().__init__(*a)
        labels = ",".join(self.hp.lambda2.BASIS_LABELS)
        n = self.sizes["cli_pool"]
        self.ops = [self.basis.random_unit_bianchi(self.rng) for _ in range(n)]
        self.witness_ops = [self.basis.witness_eligible(self.rng) for _ in range(n)]
        for tag, ops in (("op", self.ops), ("wit", self.witness_ops)):
            for k, r in enumerate(ops):
                with open(self._path(f"{tag}-{k}.json"), "w") as fh:
                    json.dump({"basis": labels, "matrix": r.tolist()}, fh)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def args(self, i):
        kind = self.kinds[i % len(self.kinds)]
        k = (i // len(self.kinds)) % len(self.ops)
        if kind == "witness":
            return kind, self.witness_ops[k], ["witness", "--input", self._path(f"wit-{k}.json")]
        if kind == "models":
            name, s = MODELS[k % len(MODELS)], MODEL_SCALES[k % len(MODEL_SCALES)]
            out = self._path(f"model-{k % 4}.json")
            return kind, (name, s, out), ["models", "--name", name, "--scal", repr(s), "--out", out]
        argv = [kind, "--input", self._path(f"op-{k}.json")]
        if kind == "flow":
            steps = self.sizes["cli_flow_steps"]
            out = self._path(f"flow-{k % 4}.csv")
            argv += ["--t-max", repr(steps * 1e-3), "--dt", "1e-3", "--out", out]
            return kind, (self.ops[k], out), argv
        return kind, self.ops[k], argv

    def call(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hp.cli.main(args[2])
        return code, out.getvalue()

    def check(self, args, out):
        code, text = out
        if code != 0:
            return False
        return getattr(self, "_check_" + args[0])(args[1], text)

    def _check_classify(self, r, text):
        doc = json.loads(text)
        want = self.basis.margins(r)
        tol = ref.band(r)
        return all(abs(doc[c] - want[c]) <= tol for c in CONES) and doc["class"] == ref.classify(
            want["ic_plus"], want["ic_minus"], tol
        )

    def _check_decompose(self, r, text):
        doc = json.loads(text)
        b, s, tol = self.basis, ref.scalar(r), ref.band(r)
        ric0 = b.ricci0(r)
        wplus = b.block(r, "+") - (s / 12.0) * np.eye(3)
        wminus = b.block(r, "-") - (s / 12.0) * np.eye(3)
        spectra = doc["spectra"]
        return (
            abs(doc["scal"] - s) <= tol
            and ref.close(doc["ric0"], ric0, tol)
            and ref.close(doc["wplus"], wplus, tol)
            and ref.close(doc["wminus"], wminus, tol)
            and ref.close(spectra["ric0"], np.linalg.eigvalsh(ric0), tol)
            and ref.close(spectra["wplus"], np.linalg.eigvalsh(wplus), tol)
            and ref.close(spectra["wminus"], np.linalg.eigvalsh(wminus), tol)
        )

    def _check_witness(self, r, text):
        doc = json.loads(text)
        b = self.basis
        kappa = -b.two_positive(r, "+") / 2.0
        s = ref.scalar(r) + 12.0 * kappa
        w = np.array(doc["witness"]["matrix"], dtype=float)
        g = np.array(doc["g"], dtype=float)
        tol = ref.band(w)
        return (
            abs(doc["kappa"] - kappa) <= tol
            and abs(ref.scalar(w) - s) <= tol
            and abs(doc["scale"] - s / 12.0) <= tol
            and ref.close(w, w.T, tol)
            and b.bianchi_defect(w) <= tol
            and ref.close(np.linalg.eigvalsh(b.block(w, "+")), [0.0, 0.0, s / 4.0], tol)
            and ref.close(b.block(w, "-"), (s / 12.0) * np.eye(3), tol)
            and ref.close(b.cross_block(w), 0.0, tol)
            and ref.close(g.T @ g, np.eye(4), tol)
            and np.linalg.det(g) > 0.0
        )

    def _check_models(self, spec, text):
        name, s, path = spec
        with open(path) as fh:
            doc = json.load(fh)
        r = np.array(doc["matrix"], dtype=float)
        return text == "" and r.shape == (6, 6) and ref.model_ok(self.basis, name, s, r)

    def _check_flow(self, spec, text):
        r0, path = spec
        fields = dict(kv.split("=", 1) for kv in text.split())
        steps = self.sizes["cli_flow_steps"]
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        t, scal, m_scal, m_plus, m_minus, m_ic, norm = rows.T
        want = self.basis.margins(r0)
        tol = ref.band(r0)
        return (
            lines[0] == CSV_HEADER
            and fields["termination"] == "completed"
            and int(fields["samples"]) == steps + 1 == len(rows)
            and ref.close(t, np.arange(steps + 1) * 1e-3, 1e-12)
            and float(fields["t_final"]) == t[-1]
            and float(fields["scal_final"]) == scal[-1]
            and ref.close([scal[0], m_plus[0], m_minus[0], m_ic[0]],
                          [want["scal"], want["ic_plus"], want["ic_minus"], want["ic"]], tol)
            and abs(norm[0] - np.linalg.norm(r0)) <= tol
            and np.array_equal(m_scal, scal)
            and np.array_equal(m_ic, np.minimum(m_plus, m_minus))
        )


WORKLOADS = {w.name: w for w in (IsoFrames, FlowProbe, FactorAvg, CliOps)}
