"""Host-speed calibration: takes the machine's speed drift out of timings.

On a shared virtual machine the host's speed drifts by 10-20% over minutes
(neighbours' load, clock frequency), and every timing of a run drifts with
it: run-to-run spreads of the raw medians reach 15-25%.  A fixed probe is
timed after every request: a pure-Python dict loop, a few in-cache numpy
passes, and a pass over 4 MiB buffers.  It is code outside the repository
and allocates no large array (so the program's allocator state cannot
change it either): no change to the program moves it.  Its run median
turns the run's measured seconds into reference seconds, what the run
would read on a host where the probe takes ``REFERENCE_S``.  Over 15- and
20-second windows of one process (IQR / median) this cut the drift of
request times from 15% to 4% on ``tensornet-35q`` (one BLAS thread) and
from 11-18% to 7% on ``clifford-frames``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Probe time of the reference host, in seconds (about the probe's median
#: on a 2-vCPU Xeon VM at 2.1 GHz, so reference and measured seconds are
#: close there).
REFERENCE_S = 1.9e-3


class HostSpeed:
    """Probe timings of one run; :meth:`scale` converts its seconds.

    Holds 8.5 MiB of probe buffers, which the process's peak RSS includes.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._bytes = rng.integers(0, 256, 1 << 18, dtype=np.uint8)
        self._bytes_rev = self._bytes[::-1].copy()
        self._bytes_out = np.empty_like(self._bytes)
        self._small = rng.random(1 << 16)
        self._small_out = np.empty_like(self._small)
        self._big = rng.random(1 << 19)
        self._big_out = np.empty_like(self._big)
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the probe once: geometric mean of its three parts."""
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(20_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        t1 = time.perf_counter()
        for _ in range(4):
            np.bitwise_xor(self._bytes, self._bytes_rev, out=self._bytes_out)
            np.cumsum(self._small, out=self._small_out)
            self._small[:4096].copy().sort()
        t2 = time.perf_counter()
        for _ in range(2):
            np.multiply(self._big, 1.0000001, out=self._big_out)
        t3 = time.perf_counter()
        self.samples.append(((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3))

    def scale(self) -> float:
        """Reference seconds per measured second of this run."""
        return REFERENCE_S / statistics.median(self.samples)
