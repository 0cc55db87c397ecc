"""Reference seconds: times corrected for the speed of a shared host.

On the shared 2-core host this benchmark was written on, each CPU's speed
drifts on its own: a fixed loop ran up to 1.7x slower on one CPU for tens
of seconds while the other held steady, and whole runs of the benchmark
differed by 20% in wall time.  So a Meter times a fixed kernel on the
same CPU before and after each measured block and, while the block runs,
every SAMPLE_S seconds from a timer signal, and the block's time is
reported as

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

with the median of those kernel times.  REFERENCE_S is the kernel's
median time on that host (Intel Xeon, 2 vCPUs, Python 3.11).  There,
reference seconds read close to wall seconds; anywhere, they stay
steadier than wall seconds while the host's speed drifts, also within a
single ten-second call.

The kernel is pure-Python bitmask backtracking like factorcover's own
searches, but shares no code with it, so no change to the package moves
it: it counts the perfect matchings of the generalized Petersen graph
GP(16, 3).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

REFERENCE_S = 0.032
SAMPLE_S = 0.5

_K = 16
_EDGES = ([(i, (i + 1) % _K) for i in range(_K)]
          + [(_K + i, _K + (i + 3) % _K) for i in range(_K)]
          + [(i, _K + i) for i in range(_K)])
_INCIDENCE = [[] for _ in range(2 * _K)]
for _f, (_u, _v) in enumerate(_EDGES):
    _INCIDENCE[_u].append(_f)
    _INCIDENCE[_v].append(_f)
_FULL = (1 << (2 * _K)) - 1


def _count(covered: int) -> int:
    if covered == _FULL:
        return 1
    free = ~covered & _FULL
    v = (free & -free).bit_length() - 1
    total = 0
    for f in _INCIDENCE[v]:
        a, b = _EDGES[f]
        w = b if a == v else a
        if not covered >> w & 1:
            total += _count(covered | (1 << v) | (1 << w))
    return total


def sample_seconds() -> float:
    """Wall time of one count, doubled: a quick sample of kernel_seconds."""
    t0 = time.perf_counter()
    _count(0)
    return 2 * (time.perf_counter() - t0)


def kernel_seconds() -> float:
    """Wall time of two counts, about 30 ms on that host: twice the median
    of three single counts, so that one preempted count does not skew it."""
    return sorted(sample_seconds() for _ in range(3))[1]


class Meter:
    """Kernel times around a block of this process's work, and inside it
    every SAMPLE_S seconds when `sample` is set.

    `before` reuses the closing kernel time of an adjacent block on the
    same CPU.  On exit, `factor` converts the block's seconds into
    reference seconds and `after` holds the closing kernel time.
    `paused_wall` and `paused_cpu` are the seconds the samples inside the
    block took, which the block's own timings must leave out.
    """

    def __init__(self, sample: bool, before: Optional[float] = None):
        self.sample = sample
        self.before = before
        self.factor = 1.0
        self.after = 0.0
        self.paused_wall = self.paused_cpu = 0.0

    def __enter__(self) -> "Meter":
        self.samples = [kernel_seconds() if self.before is None
                        else self.before]
        if self.sample:
            self.handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def _tick(self, *_) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(sample_seconds())
        self.paused_wall += time.perf_counter() - t0
        self.paused_cpu += time.process_time() - c0

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.handler)
        self.after = kernel_seconds()
        self.samples.append(self.after)
        self.factor = REFERENCE_S / statistics.median(self.samples)
