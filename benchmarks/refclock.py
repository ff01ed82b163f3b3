"""Wall times normalised by a reference kernel timed around and during them.

The CPU under the benchmark can change speed by a factor of about two for
seconds at a time (shared host cores), which no median over a 30-second run
averages out.  So every timed call is measured against a fixed reference
kernel: small-vector numpy arithmetic and float formatting, the same kind of
work as the program's step loop and CSV writer, but benchmark code the
program cannot change.  The kernel runs before and after each call and, for
single-process calls, also inside it: a SIGALRM every SAMPLE_EVERY_S seconds
runs a short kernel, so that a call of several seconds is measured against
the speed the CPU had while it ran.  The sampling time is taken off the
call's wall time.  A call's normalised time is

    wall * NOMINAL_S / mean(reference kernel times)

that is, its wall time at the CPU speed where the kernel takes NOMINAL_S
seconds.  Calls that use both cores (``--parallel 2``) are bracketed by the
kernel running on two processes at once and are not sampled inside.
"""

from __future__ import annotations

import os
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: kernel time on the reference machine (see baseline.json) when it runs at full speed
NOMINAL_S = 0.019
NOMINAL_PAIR_S = 0.031
KERNEL_STEPS = 3000
SAMPLE_STEPS = 1000
SAMPLE_EVERY_S = 0.3


def kernel(steps: int = KERNEL_STEPS) -> float:
    """Seconds taken by the fixed reference work, scaled to KERNEL_STEPS steps."""
    s = np.array([0.5, -0.25])
    target = np.array([2.0, -1.0])
    lines = []
    t0 = perf_counter()
    for i in range(steps):
        d = s - target
        e = 0.5 * float(np.dot(d, d))
        s = 0.5 * s + 0.5 * target + 1e-3
        if not np.all(np.isfinite(s)):
            raise ArithmeticError("reference kernel diverged")
        if i % 8 == 0:
            lines.append(format(e, ".16e"))
    return (perf_counter() - t0) * KERNEL_STEPS / steps


def kernel_pair() -> float:
    """Seconds for the kernel to run in this process and a forked one at once."""
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:  # child: run the kernel and leave without cleanup handlers
        try:
            kernel()
        finally:
            os._exit(0)
    kernel()
    os.waitpid(pid, 0)
    return perf_counter() - t0


@dataclass
class Timing:
    wall: float
    ref: float
    nominal: float

    @property
    def norm(self) -> float:
        return self.wall * self.nominal / self.ref


class RefClock:
    """Times calls between reference-kernel runs.

    Consecutive single-core calls share the kernel run between them, so a
    pass of n calls costs about n + 1 kernel runs.
    """

    def __init__(self):
        self._last: float | None = None

    def reset(self):
        """Forget the last kernel time, e.g. after untimed work between calls."""
        self._last = None

    def time(self, fn, *args, pair: bool = False):
        """Call fn(*args); returns (result, Timing)."""
        probe = kernel_pair if pair else kernel
        before = probe() if pair or self._last is None else self._last
        samples, spent = [], []

        def sample(signum, frame):
            t = perf_counter()
            samples.append(kernel(SAMPLE_STEPS))
            spent.append(perf_counter() - t)

        if not pair:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            if not pair:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = probe()
        self._last = None if pair else after
        ref = statistics.mean([before, after, *samples])
        return result, Timing(wall - sum(spent), ref, NOMINAL_PAIR_S if pair else NOMINAL_S)
