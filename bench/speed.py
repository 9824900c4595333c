"""Host-speed probe that the end-to-end times are normalized by.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes (other tenants' load on shared caches, memory and sibling
hyperthreads).  Process CPU time, which the benchmark measures, leaves out
the slices other processes take but drifts with the core's speed.  The probe
runs a fixed kernel that mixes what halfpic's calls do (a batch of
small symmetric eigenproblems, an interpreter loop, and a streaming pass over
8 MB) every ``PERIOD_S`` CPU seconds of a run.  A call's latency is then scaled
by ``NOMINAL_S`` over the median time of the ``WINDOW`` probes nearest to it,
which reports it at the speed the host had when the probe took ``NOMINAL_S``.

The kernel does not touch halfpic, so a change to halfpic moves the
normalized times exactly as it moves the raw ones; only the host's drift
divides out.  The raw times are kept in each run's record.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import process_time

import numpy as np

# Reference probe time: a normalized time reads as on a host where the probe
# takes this long.  On a shared 2-vCPU Intel Xeon at 2.0 GHz (numpy with
# OpenBLAS, one BLAS thread) the probe took 5 to 7 ms.
NOMINAL_S = 0.005
PERIOD_S = 0.2
WINDOW = 25  # about 5 s of probes: drift over seconds, not probe noise


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((512, 6, 6))
        self._a = a + a.transpose(0, 2, 1)
        self._x = np.ones(1_000_000)
        self._y = np.empty_like(self._x)
        self.times = []
        self.seconds = []
        self._next = 0.0

    def _kernel(self):
        np.linalg.eigvalsh(self._a @ self._a)
        s = 0
        for k in range(20_000):
            s += k * k % 7
        np.multiply(self._x, 1.5, out=self._y)

    def sample(self, count=1):
        for _ in range(count):
            t0 = process_time()
            self._kernel()
            t1 = process_time()
            self.times.append(t0)
            self.seconds.append(t1 - t0)
        self._next = t1 + PERIOD_S

    def tick(self):
        """Probe if PERIOD_S has passed since the last probe."""
        if process_time() >= self._next:
            self.sample()

    def factor(self, t):
        """NOMINAL_S over the median of the WINDOW probes nearest to time t."""
        j = bisect_left(self.times, t)
        lo = max(0, min(j - WINDOW // 2, len(self.times) - WINDOW))
        return NOMINAL_S / statistics.median(self.seconds[lo:lo + WINDOW])

    def normalize(self, timed):
        """Scale each (start, seconds) pair by the host speed at its start."""
        return [seconds * self.factor(start) for start, seconds in timed]

    def median_factor(self):
        return NOMINAL_S / statistics.median(self.seconds)
