"""Machine-speed probe: reports measured times in reference seconds.

The benchmark's host is shared: it runs the same code at 1.0 to 2.0 times its
fastest time, in phases that last from seconds to minutes, and a whole run can
fall into one phase.  Wall times of runs made minutes apart then differ by more
than any useful regression bound.  ``Probe`` times a fixed numpy/scipy kernel
that calls nothing of ``twofluid``; the runner probes before the first set-up
and after every set-up and every round of passes, and ``scale`` turns the
probes into the factor that rescales set-up and pass times to reference
seconds: the time they take while one kernel call takes ``NOMINAL_S``.  A
probe is the median of a few calls, so a burst inside one call is ignored.
The probes of a run are averaged without the highest and the lowest: a slow
phase can switch on and off within seconds, and the timed code feels it in
proportion to its share of the time, which a median of the probes would
miss, while one probe that caught a burst does not carry the run.  A change
to the package moves reference seconds by the same share as wall seconds; a
change of the host's speed moves both the timed code and the probe and
cancels.

The kernel does what the workloads spend their time on, at their sizes: small
FFTs along x, a tridiagonal solve and a small product, each a short numpy
call, as in strip applies and their flat preconditioner.  Dense eigensolves
were left out: they slowed less than the workloads when the host was busy.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# Kernel time that defines a reference second: one call's time on the
# baseline machine (2 vCPUs, Intel Xeon, one BLAS thread) in its fast phase.
NOMINAL_S = 0.010
# Kernel calls per probe; a probe is their median time.
CALLS = 5


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((17, 32))
        self.k = np.fft.rfftfreq(32, 1.0 / 32)
        self.banded = np.vstack([np.full(17, -1.0), np.full(17, 4.0), np.full(17, -1.0)])
        self.m = rng.standard_normal((32, 32))
        self.time()  # warm-up

    def _kernel(self) -> float:
        x = self.x
        for _ in range(150):
            y = np.fft.irfft(np.fft.rfft(x, axis=1) * self.k, n=32, axis=1)
            # restart from the fixed field, so no value decays towards subnormals
            x = self.x + 1e-3 * (solve_banded((1, 1), self.banded, y) @ self.m)
        return float(x[0, 0])

    def time(self) -> float:
        """Median wall seconds of one kernel call over CALLS calls."""
        times = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def scale(probes: list) -> float:
    """Factor from wall to reference seconds for the set-ups and passes the probes bracket."""
    return NOMINAL_S / statistics.fmean(sorted(probes)[1:-1])
