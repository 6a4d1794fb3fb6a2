"""A fixed reference kernel that measures how fast the machine is right now.

The times the benchmark reports are wall times rescaled to a nominal machine
speed: an op's wall time is multiplied by NOMINAL_S over the kernel's wall
time, averaged over the kernel runs just before and just after the op.  On a
shared machine, other tenants slow every process down by a common factor that
drifts over tens of seconds (the same pass of disk-sandwich took from 1.7 s
to 3.3 s within five minutes on a 2-core VM); the kernel slows by the same
factor, so the ratio cancels it.  The kernel is the benchmark's own code: no
change to the program can move it.  Raw wall times are reported beside the
rescaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median wall time on the 2-core VM (OpenBLAS 0.3.31, one
# thread) where the benchmark's bounds were set.  Only ratios matter.
NOMINAL_S = 0.00135

_MATRICES, _SIZE, _HORNER = 64, 6, 3


class Speedometer:
    """Runs the kernel on demand and turns wall times into nominal-speed times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (_MATRICES, _SIZE, _SIZE)
        self._mats = list(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        self.last = self.sample()

    def sample(self) -> float:
        """Run the kernel once (small SVDs and entrywise arithmetic, like the
        program's hot path) and return its wall time; it becomes `last`."""
        start = time.perf_counter()
        for m in self._mats:
            np.linalg.svd(m, compute_uv=False)
            z = m * 0.1
            for _ in range(_HORNER):
                z = z * m + 1.0
        self.last = time.perf_counter() - start
        return self.last

    def timed(self, fn):
        """Call `fn()`; return (result, wall seconds, scale), where wall × scale
        is the call's time at nominal speed."""
        before = self.last
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, NOMINAL_S / (0.5 * (before + self.sample()))
