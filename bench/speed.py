"""Machine-speed reference for timing on a shared, noisy host.

On a host whose cores are shared with other tenants the same Python code
runs up to a third slower for stretches of seconds to minutes.  The
benchmark therefore runs a fixed kernel of the program's kinds of work
(closures, float math, tiny numpy vectors, small sets and tuples) just
before every operation and expresses times at reference speed:

    time at reference speed = measured time * REFERENCE_S / local kernel time

where the local kernel time is the median of the kernel samples nearest in
time.  REFERENCE_S is a fixed constant, so values stay in seconds and
compare across runs and commits; the kernel is benchmark code that no
program change can touch.  Raw measured times are printed next to them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.001  # kernel time that defines reference speed
NEIGHBOURS = 15  # kernel samples in the local median


def kernel(steps: int = 120) -> float:
    """About a millisecond of the program's kinds of work: closure calls,
    float math, two-element numpy arithmetic, small sets, tuples, dicts."""
    f = lambda x, u: x[0] * 0.5 - math.sin(x[1]) * u
    g = lambda x, u: f(x, u) + x[1] * u
    v = np.array([0.3, -0.2])
    acc = 0.0
    for i in range(steps):
        w = v + 0.005 * np.asarray((g(v, 0.1), f(v, 0.2)), dtype=float)
        acc += float(w[0])
        s = set(range(i % 7, i % 7 + 6))
        acc += sorted(s)[-1] + len(tuple(s)) + {"k": i}.get("k", 0)
        kind = i % 3
        if kind == 0:
            acc = 0.5 * acc + math.cos(acc)
        elif kind == 1:
            acc = max(-1e6, min(1e6, acc - i))
    return acc


class SpeedMeter:
    """Kernel samples over a run, and the local speed factor at any time."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time of the samples nearest t."""
        i = bisect.bisect_left(self.starts, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.starts) - NEIGHBOURS))
        local = self.seconds[lo:lo + NEIGHBOURS]
        return REFERENCE_S / statistics.median(local)
