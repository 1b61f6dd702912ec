"""How fast the host runs a fixed piece of reference work, during a run.

The benchmark runs on shared virtual machines, where work of other tenants
slows every instruction of this process, not only its waits: on a 2-vCPU
host the same ``pcg`` solve took 90 ms in quiet seconds and 150-190 ms in
busy ones, and busy stretches lasted from under a second to minutes.  A
median over one run then depends on how busy the host was during it.

:class:`HostSpeed` interleaves short runs of :func:`reference_work` with the
workload, between the timed calls, and reports the host's speed as
``REFERENCE_S`` over the reference's mean time.  The benchmark keeps one
factor per pass; multiplying the pass's timings by it expresses them at
about the speed of a quiet host.  Over 5-second windows of one busy
stretch, the ratio of the median ``pcg`` time to the median reference time
stayed within ±5 % while the ``pcg`` median itself moved by ±20 %.  The
correction is partial between quiet and busy stretches, where ``pcg``
slowed by up to 1.7x and the reference by about 1.4x.  The reference is
the benchmark's own code, so a change to the program moves the timings and
not the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: time of :func:`reference_work` on a quiet host (2 vCPU KVM guest,
#: CPython 3.11, NumPy); a fixed constant that only sets the scale
REFERENCE_S = 3.5e-3
#: share of a run's wall time spent on the reference
PROBE_SHARE = 0.05


def reference_work() -> None:
    """A fixed mix of interpreter arithmetic and small-array NumPy calls,
    the two kinds of work the program's simulated ranks do."""
    s = 0
    for i in range(50_000):
        s += i * i
    x = np.arange(2000.0)
    for _ in range(200):
        x = np.sqrt(x + 1.0)


class HostSpeed:
    """Samples of the reference, spread over a run in proportion to time."""

    def __init__(self, share: float = PROBE_SHARE):
        self.share = share
        self.samples: list[float] = []
        self._start = time.perf_counter()
        self._spent = 0.0

    def sample(self) -> None:
        """Run the reference until it has had its share of the run so far.
        Call it only while the program is idle."""
        while not self.samples or self._spent < self.share * (time.perf_counter() - self._start):
            start = time.perf_counter()
            reference_work()
            seconds = time.perf_counter() - start
            self.samples.append(seconds)
            self._spent += seconds

    def factor(self) -> float:
        """Quiet-host time over this run's time for the same work."""
        return REFERENCE_S / statistics.fmean(self.samples)
