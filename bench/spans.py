"""Span recorder for the traced run.

``Recorder.install`` wraps each layer boundary function in every halfpic
module namespace that binds it, so a call through ``cones.require_bianchi_valid``
is caught as well as one through ``curvature.require_bianchi_valid``.  Each
wrapped call records a span (name, start, end, parent span, item id, failed)
and its self time in memory; ``write`` saves them as JSON at the end of the
run, and ``restore`` puts the original functions back.  A span's self time
is its duration minus the time covered by its child spans.  Times are CPU
seconds of the process, as in the end-to-end metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import process_time


def _stdout_bytes():
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue().encode()) if getvalue else 0


# Layer boundary functions, by the module that defines them, with an optional
# hook that turns (args, kwargs, result) into counter increments.
BOUNDARIES = {
    "lambda2.haar_quaternions": lambda a, k, out: {"rows": len(out)},
    "lambda2._quat_to_rot_batch": lambda a, k, out: {"rows": len(out)},
    "lambda2._induced_map_batch": lambda a, k, out: {"rows": len(out)},
    "curvature.require_bianchi_valid": None,
    "curvature.decompose": None,
    "curvature.read_operator": None,
    "curvature._act_average": None,
    "group_actions.average": lambda a, k, out: {"samples": k["n"] if "n" in k else a[2]},
    "cones.min_isotropic": None,
    "cones.membership": None,
    "cones.shift_to_margin": None,
    "flow.integrate": lambda a, k, out: {
        "trajectories": 1,
        "rk4_steps": len(out) - 1,
        "completed": int(out.termination == "completed"),
    },
    "flow.invariance_probe": None,
    "flow.trajectory_csv": lambda a, k, out: {"bytes": len(out.encode())},
    "group_actions.maximality_witness": None,
    "cli.build_parser": None,
    "cli.main": lambda a, k, out: {"exit_nonzero": int(out != 0), "bytes_out": _stdout_bytes()},
}

# Span layout: [name, start, end, parent index, item id, failed, self time].
FIELDS = ("name", "start", "end", "parent", "item", "failed", "self")


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.item = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(rec.spans), 0.0]  # span index, time covered by children
            span = [name, 0.0, 0.0, rec._stack[-1][0] if rec._stack else -1, rec.item, False, 0.0]
            rec.spans.append(span)
            rec._stack.append(frame)
            span[1] = process_time()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = end = process_time()
                rec._stack.pop()
                span[6] = end - span[1] - frame[1]
                if rec._stack:
                    rec._stack[-1][1] += end - span[1]
            if hook is not None:
                for key, inc in hook(args, kwargs, out).items():
                    rec.counters[f"{name}.{key}"] += inc
            return out

        return wrapper

    def install(self, hp):
        """Wrap every boundary function wherever a halfpic module binds it."""
        namespaces = [hp.package] + [getattr(hp, m) for m in hp.MODULES]
        for name, hook in BOUNDARIES.items():
            home, attr = name.split(".")
            original = getattr(getattr(hp, home), attr)
            wrapper = self._wrap(name, original, hook)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        left = [(m.__name__, k) for m, k, o in self._patched if getattr(m, k) is not o]
        self._patched = []
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def layer_totals(self):
        """Per boundary name: calls, total self seconds, total seconds, fails."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "fails": 0} for name in BOUNDARIES}
        for name, start, end, _, _, failed, self_s in self.spans:
            t = out[name]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += self_s
            t["fails"] += int(failed)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
