"""Reference seconds: wall time scaled by the machine's speed while it was measured.

The small shared machines this benchmark runs on change speed with the
load of their neighbours.  On the 2-core box where the benchmark was
defined, the same 150 leapfrog marches took 0.38 s and 1.0 s a few minutes
apart, and ten identical ``lipschitz_1d`` solves took 10.8-14.8 s (a
quartile spread of 24% of the median).  Wall time alone cannot meet a 25%
regression bound there.

So every timing is also expressed in reference seconds: the wall time
multiplied by the workload's reference kernel time over the time that the
kernel took while the timing ran.  The kernel runs leapfrog steps with a
potential and a source on the workload's own space-time grid, written here
with numpy the way ``solver._march_1d``/``_march_2d`` do it: the same kind
of work as the solver's inner loop, on arrays of the same size, but it does
not call the program, so a faster program still reads faster.  ``Sampler`` runs the
kernel on a wall-clock timer (SIGALRM) during a solve and subtracts its own
time from the solve; set-up, too short to sample inside, is bracketed by
``Kernel.seconds`` calls in the parent.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.1
# one kernel run: at most this many steps and node-steps, about 1 ms here
SAMPLE_STEPS = 150
SAMPLE_NODE_STEPS = 30_000


class Kernel:
    """Leapfrog steps on a grid of ``shape`` nodes with ``levels`` time levels.

    Like the solver, it streams through a trajectory, a potential and a
    source of the full space-time size; each run marches the next window
    of steps, so successive runs walk through the fields as a march does.
    """

    def __init__(self, shape: tuple, levels: int, reference_s: float):
        self.shape, self.reference_s = tuple(shape), reference_s
        dim = len(self.shape)
        self.c = 0.4 / dim                     # CFL-stable: sum of c over axes < 1
        self.core = (slice(1, -1),) * dim
        self.shifts = []
        for axis in range(dim):
            lo, hi = list(self.core), list(self.core)
            lo[axis], hi[axis] = slice(None, -2), slice(2, None)
            self.shifts.append((tuple(lo), tuple(hi)))
        nodes = math.prod(n - 2 for n in self.shape)
        self.steps = max(2, min(levels - 2, SAMPLE_STEPS, SAMPLE_NODE_STEPS // nodes))
        field_shape = (levels,) + self.shape
        self.y = np.zeros(field_shape)
        self.potential = np.full(field_shape, 0.5)
        self.source = np.full(field_shape, 0.01)
        self.start = 0

    def run(self):
        c, dt2, core, y = self.c, 1e-3, self.core, self.y
        if self.start + self.steps + 2 > len(y):
            self.start = 0
        first = self.start + 1
        self.start += self.steps
        y[first - 1] = y[first] = 1.0
        for n in range(first, first + self.steps):
            yn = y[n]
            buf = (2.0 - 2.0 * len(self.shape) * c) * yn[core] - y[n - 1][core]
            for lo, hi in self.shifts:
                buf += c * (yn[lo] + yn[hi])
            buf -= dt2 * self.potential[n][core] * yn[core]
            buf += dt2 * self.source[n][core]
            y[n + 1][core] = buf

    def seconds(self, reps: int = 1) -> float:
        """Wall time of one kernel run, averaged over ``reps`` back-to-back runs."""
        t0 = time.perf_counter()
        for _ in range(reps):
            self.run()
        return (time.perf_counter() - t0) / reps

    def scale(self, kernel_seconds: float) -> float:
        """Factor from wall seconds to reference seconds at this kernel time."""
        return self.reference_s / kernel_seconds


class Sampler:
    """Context manager that times the kernel every SAMPLE_INTERVAL_S of wall time.

    ``overhead_s`` is the wall time spent in the kernel, to subtract from
    the enclosed timing; ``scale`` converts the remaining seconds into
    reference seconds.  The enclosed code must run in the main thread.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = []
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        self.samples.append(self.kernel.seconds())
        self.overhead_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(self.kernel.seconds())
        return False

    @property
    def scale(self) -> float:
        return self.kernel.scale(statistics.fmean(self.samples))
