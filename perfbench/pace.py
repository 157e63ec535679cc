"""Host-speed reference for the timed end-to-end metrics.

On a shared host the same code runs at changing speeds. On the 2-core
x86_64 host this benchmark was tuned on, a 50-step ball-beam run took
either about 14 or about 23 ms, and the speed switched every few seconds
while the process stayed on the CPU (CPU time equal to wall time). A 25 s
run does not average that out: the share of slow seconds differs from run
to run, and the mean round time of ten runs spread by up to 35 %.

So a fixed kernel that does not use bipbc (a pure-Python loop of float
arithmetic, `math` calls and dict stores, then small numpy solves) is timed
right before and right after each timed call, and every SAMPLE_PERIOD_S during it, from
a SIGALRM handler (it runs between bytecodes, so within a bipbc call). Each
reading gives the host's speed then, REF_KERNEL_S / kernel seconds, and the
call's wall time is rescaled by the mean speed over its readings:

    ref_s = wall_s * mean(REF_KERNEL_S / kernel_s)

the call's time at the reference speed, the speed at which the kernel
takes REF_KERNEL_S. A change to bipbc moves `ref_s` as it moves `wall_s`. A
change of host speed moves the call and the kernel together and cancels
out. `wall_s` leaves out the time spent in the handler (1-2 %).

The kernel mixes interpreter and small-array numpy work, as bipbc's runs do:
against the nominal workload's two trajectories, over 26 rounds on that host,
rescaling by this mix left a spread (IQR/median) of 0.022 and 0.064, by the
pure-Python half alone 0.041 and 0.092, by the numpy half alone 0.045 and
0.070, where wall times spread by 0.146 and 0.158.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

#: the kernel's seconds at the reference speed (about its fast-state time on
#: the host above); a fixed constant, so `ref_s` is in reference seconds
REF_KERNEL_S = 0.001
KERNEL_STEPS = 3000
KERNEL_SOLVES = 30
_KERNEL_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])
#: the speed holds for seconds; ten readings a second follow it for under 1 %
#: of the time
SAMPLE_PERIOD_S = 0.1



def kernel() -> float:
    """Fixed interpreter and numpy work that uses no bipbc code."""
    s = 0.0
    d = {}
    for i in range(KERNEL_STEPS):
        s += math.sin(i * 1e-3) * (i % 7)
        d[i & 63] = s
    x = np.ones(2)
    for _ in range(KERNEL_SOLVES):
        y = np.linalg.solve(_KERNEL_MATRIX, x)
        x = 0.5 * x + 0.25 * y + 1e-3 * np.tanh(x)
    return s + float(x @ x)


def kernel_s() -> float:
    """Seconds of one kernel call now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def to_ref(wall_s: float, *readings_s: float) -> float:
    """`wall_s` rescaled by the mean host speed of the kernel readings."""
    return wall_s * REF_KERNEL_S * sum(1.0 / k for k in readings_s) / len(readings_s)


class Paced:
    """Times its block in wall seconds and reference seconds, also if it raises.

        with Paced() as timing:
            out = call()
        timing.wall_s, timing.ref_s, len(timing.readings_s)

    Uses SIGALRM and the real-time interval timer, so it runs only in the
    main thread and must not be nested.
    """

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.readings_s.append(kernel_s())
        self.handler_s += perf_counter() - t0

    def __enter__(self) -> "Paced":
        self.readings_s = [kernel_s()]
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # after cancelling, so a reading already due is both in `elapsed`
        # and in `handler_s`
        elapsed = perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - self.handler_s
        self.readings_s.append(kernel_s())
        self.ref_s = to_ref(self.wall_s, *self.readings_s)
        return False
