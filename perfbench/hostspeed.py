"""A fixed reference kernel, timed between a campaign's units, that gauges
how fast the host is running the benchmark at that moment.

On a shared machine the host's speed drifts by tens of percent within a
minute: other tenants' load on the shared cores and caches slows every
instruction, and neither wall nor CPU clocks can tell that from a slower
program.  The kernel is benchmark-own code that never changes between the
commits being compared, so the ratio of its measured time to its nominal
time is the host's slowdown at that moment.  ``worker.py`` runs it before
every unit and reports the mean slowdown over the campaign; ``run.py``
converts the campaign's times to the nominal host with :func:`at_nominal`.

The kernel mixes what a ``repro.scale`` epoch does: interpreter-bound Python
and numpy calls on arrays of 2^17 to 2^20 elements (slice histograms,
sorted-key lookups, a streaming reduction), so contention for the core and
for the memory system both show in it.  Its arrays take about 5 MB.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel seconds per call (wall or CPU) that count as slowdown 1.0: about
#: its median on a 2-vCPU x86-64 VM (Xeon, numpy 2.4) when it was fixed.  It
#: is only a scale, so it must stay the same between the commits compared.
NOMINAL_S = 1.9e-3
#: Kernel calls before each unit.
CALLS_PER_SAMPLE = 2
#: How much more a campaign slows than the kernel does, as a power.  Over
#: seven sets of ten untraced runs (E13-E16, one process per campaign) the
#: slope of log throughput on log kernel time ranged from -0.88 to -1.63,
#: mostly about -1.3, with correlations of -0.88 to -0.99: the campaigns
#: hold more data in the shared cache than the kernel, so other tenants'
#: load costs them more.  1.3 gave the smallest largest spread over those
#: sets.
ELASTICITY = 1.3


def at_nominal(seconds: float, slowdown: float) -> float:
    """``seconds`` measured at ``slowdown``, as they would read at 1.0."""
    return seconds / slowdown ** ELASTICITY


class HostSpeed:
    """Reference timings taken between units, and the time they cost."""

    def __init__(self):
        self.wall = []  # kernel wall seconds per call
        self.cpu = []  # kernel CPU seconds per call
        self.spent_wall = 0.0  # all wall time spent here, set-up included
        self.spent_cpu = 0.0
        self._keys = self._queries = self._classes = None
        self._weights = self._squares = None

    def _build(self):
        rng = np.random.default_rng(20060101)
        self._keys = np.sort(rng.integers(0, 2**63, 2**18, dtype=np.int64))
        self._queries = rng.integers(0, 2**63, 2**11, dtype=np.int64)
        self._classes = rng.integers(0, 32, 2**20, dtype=np.uint8)
        self._weights = rng.random(2**17)
        self._squares = np.empty_like(self._weights)

    def _kernel(self) -> int:
        # Small numpy calls on slices of a 2^20 array, as a ring rebuild makes.
        acc = 0
        for k in range(48):
            lo = (k * 21841) % (2**20 - 4096)
            hist = np.bincount(self._classes[lo:lo + 4096], minlength=32)
            acc += int(hist[k & 31])
        # Random lookups into a 2 MB array and a pass over a 1 MB one.
        slots = np.searchsorted(self._keys, self._queries)
        acc += int(slots[acc % slots.size])
        acc += int(np.square(self._weights, out=self._squares).sum())
        # Interpreter-bound glue: arithmetic, tuples and a dict.
        table = {}
        for i in range(3000):
            acc = (acc * 31 + i) % 1000003
            table[i & 255] = (i, acc)
        return acc + len(table)

    def sample(self) -> None:
        """Time the kernel ``CALLS_PER_SAMPLE`` times; count all of it as spent."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if self._keys is None:
            self._build()
            self._kernel()  # first calls pay numpy's lazy set-up
        for _ in range(CALLS_PER_SAMPLE):
            w, c = time.perf_counter(), time.process_time()
            self._kernel()
            self.wall.append(time.perf_counter() - w)
            self.cpu.append(time.process_time() - c)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def slowdown(self) -> tuple:
        """Mean kernel (wall, CPU) time over the nominal time."""
        return (sum(self.wall) / len(self.wall) / NOMINAL_S,
                sum(self.cpu) / len(self.cpu) / NOMINAL_S)
