"""The benchmark's iso_frames gate, run at its self-test sizes: the polish
passes the benchmark's reference check, and a planted wrong kernel fails it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run from the repository root, where bench/selftest.py expects to be run
_GATE = """
import json, os, sys
sys.path.insert(0, "bench")
import selftest
root = os.getcwd()
with open("BENCHMARK.json") as fh:
    bench = json.load(fh)
print(json.dumps({
    "untraced": selftest.check_untraced(root, bench, "iso_frames"),
    "wrong_kernel": selftest.check_wrong_kernel(root, "iso_frames", selftest._wrong_min_isotropic),
}))
"""


def test_iso_frames_gate_passes_the_polish_and_catches_a_wrong_kernel():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _GATE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"untraced": [], "wrong_kernel": []}
