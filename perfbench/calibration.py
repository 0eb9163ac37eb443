"""Host speed, sampled while the timed plans run.

On a shared host the same plan takes from 1.3 s to 3.2 s: the vCPU runs
Python code in a fast and a slow mode about 2x apart that switch within a
second, and the share of slow time drifts over minutes. A run's raw median
follows that share more than the program. So while a plan runs, a SIGALRM
handler times a short fixed kernel, frozen here and independent of
gliderplan, every PERIOD_S of wall time. Each plan's times are scaled by
REF_CHUNK_S over the kernel's mean time during that plan, after the
handler's own time is taken out: times are reported at the speed of a host
on which one chunk takes REF_CHUNK_S.

The kernel does what the planner does most, scalar math-module calls and
the allocation of small frozen dataclasses into lists and dicts, because
those slow down in the slow mode as much as gliderplan's velocity and
build_grid do, by 2.1x to 2.3x between the 5th and 95th percentile of
interleaved samples. Heap operations (1.9x) and a random walk over
megabytes of objects (1.4x) slow down less, so the kernel leaves them out.
Timing the kernel between plans instead tracked the plans worse: a few
blocks per run sample too few of the mode switches.
"""

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

REF_CHUNK_S = 2e-4
PERIOD_S = 0.02
_STEPS = 30
_EDGES = 100


@dataclass(frozen=True)
class _Sample:
    u: float
    v: float


@dataclass(frozen=True)
class _Edge:
    frm: int
    to: int
    length: float
    heading: float


def _field(x, y, t):
    a = 0.84 * (x - 0.12 * t)
    b = 1.2 + 0.3 * math.cos(0.4 * t + 1.5707963267948966)
    sa = math.sin(a)
    ca = math.cos(a)
    n = y - b * ca
    g = 1.0 + 0.7056 * b * b * sa * sa
    d = math.sqrt(g)
    ch = math.cosh(n / d)
    s2 = 1.0 / (ch * ch)
    return _Sample(s2 / d, -s2 * (0.84 * b * sa * d - n * 0.592704 * b * b * sa * ca / d) / g)


def _chunk():
    """One fixed unit of work."""
    x = y = 0.0
    for i in range(_STEPS):
        s = _field(x, y, i * 0.01)
        x += 0.001 * s.u
        y += 0.001 * s.v
    edges = []
    adjacency = {}
    for i in range(_EDGES):
        dx = (i % 37) * 0.1 + x
        dy = (i % 11) * 0.1 + y
        e = _Edge(i, i + 1, math.hypot(dx, dy), math.atan2(dy, dx))
        edges.append(e)
        adjacency.setdefault(i % 97, []).append(e)


class SpeedSampler:
    """Kernel times taken every PERIOD_S while sampling() is open."""

    def __init__(self):
        self.times = []
        self.spent = 0.0   # wall time inside the handler

    def _handler(self, signum, frame):
        t = time.perf_counter()
        _chunk()
        now = time.perf_counter()
        self.times.append(now - t)
        self.spent += now - t

    def clock(self):
        """Wall time with the handler's time taken out."""
        return time.perf_counter() - self.spent

    @contextmanager
    def sampling(self):
        """Sample while the block runs; yields the list that receives the
        block's kernel times when it ends."""
        first = len(self.times)
        window = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            window.extend(self.times[first:])

    def summary(self):
        return {"chunks": len(self.times),
                "mean_s": statistics.fmean(self.times),
                "median_s": statistics.median(self.times),
                "handler_s": self.spent}
