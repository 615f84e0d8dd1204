"""Machine-speed probe: how the benchmark normalises its times.

On a shared host the speed a process gets drifts by up to 2x within
minutes, because other tenants contend for the same cores, caches and
memory.  No steal time is reported and CPU time drifts with wall time,
so raw seconds from two moments are not comparable, and no median
taken inside one run removes a drift that outlasts the run.

``run.py`` therefore runs a :class:`SpeedProbe` thread for the
lifetime of every workload process, on the CPUs the process is pinned
to (:func:`workload_cpus`), so the probe meets the contention the
workload meets.  Every :data:`PERIOD_S` it times two fixed kernels,
independent of ``src/``: an interpreter-bound loop, and a gather of
random elements from an array larger than the last-level cache.  The
placer is interpreter-bound code chasing pointers through memory, and
no single kernel tracks it on every workload: on a 2-vCPU host the
loop tracked the serial workload best and the gather the 2-worker one.
The process's speed factor is the geometric mean of the two kernels'
``reference / median`` ratios, and every time the benchmark reports
for the process is multiplied by it: seconds at the speed of an idle
reference host.  A change to the placer moves the workload but not the
kernels, so it shows in full.
"""

from __future__ import annotations

import os
import statistics
import threading
from typing import AbstractSet, Any, FrozenSet, List

import numpy as np

from repro.obs import Stopwatch

#: Seconds between probes.  Both kernels together take about 1 ms, so
#: the probe costs about 2% of one CPU.
PERIOD_S = 0.05

#: Median times of the two kernels on an idle 2-vCPU host (Python
#: 3.11): normalised times are seconds at that speed.
LOOP_REFERENCE_S = 0.75e-3
GATHER_REFERENCE_S = 0.30e-3

#: The gather reads this many random float64s from an array of
#: ``GATHER_ARRAY_BYTES``, well beyond the last-level cache.
GATHER_READS = 20000
GATHER_ARRAY_BYTES = 64 * 2**20


def loop_kernel() -> int:
    """Fixed interpreter-bound work."""
    total = 0
    for i in range(12000):
        total += i * i % 7
    return total


def workload_cpus(processes: int) -> FrozenSet[int]:
    """CPUs for a workload that keeps ``processes`` processes busy: the
    first ``processes`` CPUs this process may run on."""
    allowed = sorted(os.sched_getaffinity(0))
    return frozenset(allowed[:max(1, processes)])


class SpeedProbe:
    """Times both kernels on ``cpus`` until closed.

    The thread pins itself (on Linux, ``sched_setaffinity(0, ...)``
    applies to the calling thread only) and probes once at start, so
    even a short-lived process gets one sample.
    """

    def __init__(self, cpus: AbstractSet[int]) -> None:
        self.cpus = frozenset(cpus)
        self.loop_s: List[float] = []
        self.gather_s: List[float] = []
        rng = np.random.default_rng(0)
        self._array = rng.random(GATHER_ARRAY_BYTES // 8)
        self._index = rng.integers(0, self._array.size, GATHER_READS)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="e2e-speed-probe")

    def _loop(self) -> None:
        os.sched_setaffinity(0, self.cpus)
        while True:
            watch = Stopwatch()
            loop_kernel()
            self.loop_s.append(watch.elapsed())
            watch.restart()
            float(self._array[self._index].sum())
            self.gather_s.append(watch.elapsed())
            if self._stop.wait(PERIOD_S):
                return

    def factor(self) -> float:
        """Geometric mean of ``reference / median`` over both kernels:
        below 1 on a host slower than the reference."""
        loop = LOOP_REFERENCE_S / statistics.median(self.loop_s)
        gather = GATHER_REFERENCE_S / statistics.median(self.gather_s)
        return float(np.sqrt(loop * gather))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
