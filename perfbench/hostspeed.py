"""How fast the host runs right now, read off a fixed reference burst.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over minutes: identical width-16 passes took 22-26 s
in fresh processes, and a fixed reference loop slowed with them.  A
workload therefore runs short bursts of the fixed computation below
between its timed operations (outside their time), and ``cand_per_s``
is reported at the reference speed: the throughput as measured times
the host's slowdown, the bursts' mean time over :data:`NOMINAL_S`.
When the host slows, both the timed work and the bursts slow, and the
product holds.

A burst mixes the two kinds of work the screening layers do, in
about the proportion that tracked all three workloads best: an
interpreter loop over small numpy calls (per-call overhead, as in
witness extraction) for about a quarter of its time, and a sort of a
fresh 8 MB key array (memory and page faults, as in the weight-4/5
screens over millions of position pairs) for the rest.  The burst is
the benchmark's own code and touches nothing of ``repro``, so a
change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one burst takes at the reference speed: about its time on
#: the 2-vCPU host the bounds in BENCHMARK.json were measured on.
NOMINAL_S = 0.018


class HostClock:
    """Reference bursts taken during a run, and the slowdown they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 62, 1 << 20, dtype=np.uint64)
        self._small = np.sort(rng.integers(0, 1 << 32, 512, dtype=np.uint64))
        self._probe = rng.integers(0, 1 << 32, 16, dtype=np.uint64)
        self.samples: list[float] = []
        self._burst()  # first-call costs stay out of the samples

    def _burst(self) -> float:
        t0 = time.perf_counter()
        for i in range(600):
            np.searchsorted(self._small, self._probe ^ np.uint64(i)).sum()
        np.sort(self._keys)
        return time.perf_counter() - t0

    def sample(self, bursts: int = 1) -> None:
        """Run and record ``bursts`` reference bursts."""
        self.samples += [self._burst() for _ in range(bursts)]

    @property
    def burst_s(self) -> float:
        """Mean seconds of a recorded burst."""
        return statistics.fmean(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran."""
        return self.burst_s / NOMINAL_S
