"""Host speed, sampled while a run is timed, and times scaled by it.

A shared host's speed moves by up to a factor of 1.7 over seconds to
minutes, in CPU time as much as in wall time, so raw host times of the same
work spread by 6-13% across runs, and by 9-47% across seeds.

``Sampler`` therefore times a fixed calibration kernel, for about half a
millisecond every ``PERIOD_S`` of wall time, from a ``SIGALRM`` handler in
the timed process itself: the kernel shares the run's core and its moment.
A region's own time (its wall time minus the slices inside it), multiplied
by the host speed the kernels saw during it relative to ``REFERENCE_S``, is
the region's time at reference speed.

There are two kernels, run in turn.  One is interpreter-bound, one waits on
memory, and the simulator sits between them: its interpreter-bound
workloads slow down with the first, its memory-bound ones with the second.
The speed of a region is the geometric mean of the two kernels' mean
speeds.  Neither kernel allocates an object the garbage collector tracks,
so no collection of the simulator's heap runs inside a slice.

The memory kernel runs faster when the simulator has left more of its
4 MiB in the cache: a slice took 0.31 ms after a loop with a tiny working
set and 0.47-0.49 ms after one that streams through 300 MiB.  Between the
four workloads the ratio of the two kernels' median slice times differed
by 2%.  A change that cuts the simulator's memory traffic therefore sees a
small part of its gain hidden in the scaled time, and a change that adds
memory traffic a small part of its loss.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter
from typing import List, Tuple

#: wall seconds between calibration slices: about 2% of a run
PERIOD_S = 0.025

_SLOTS = [0] * 128
_BYTES = bytearray(range(256)) * (1 << 14)


def _interp(n: int = 2500) -> int:
    """Interpreter-bound: list updates and integer arithmetic."""
    slots = _SLOTS
    s = 0
    for i in range(n):
        k = i & 127
        slots[k] = (slots[k] + i) & 0xFFFF
        s += i * 3 % 7
    return s


def _memory(n: int = 1500) -> int:
    """Memory-bound: pseudo-random reads over 4 MiB."""
    data = _BYTES
    s = 0
    j = 12345
    for _ in range(n):
        j = (j * 1103515245 + 12345) & 0x3FFFFF
        s += data[j]
    return s


#: run in turn, one per slice
KERNELS = (_interp, _memory)
#: seconds one slice of each kernel takes at reference speed: the medians of
#: 2,800 slices taken inside benchmark children on a 2-vCPU Xeon host
REFERENCE_S = (0.00037, 0.00039)


class Sampler:
    """Times calibration slices while its ``with`` block runs.

    Slices run only between bytecodes of the main thread, so a long call
    into native code defers the next slice until it returns."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        #: (start, seconds, kernel index) per slice
        self.slices: List[Tuple[float, float, int]] = []
        self._busy = False
        self._old = None

    def _slice(self) -> None:
        i = len(self.slices) % len(KERNELS)
        t0 = perf_counter()
        KERNELS[i]()
        self.slices.append((t0, perf_counter() - t0, i))

    def _on_alarm(self, signum, frame) -> None:
        # a slow slice can outlast the period: never nest slices
        if self._busy:
            return
        self._busy = True
        try:
            self._slice()
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        # one slice of each kernel up front: warm, and never without samples
        for _ in KERNELS:
            self._slice()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end)`` relative to the reference.  A
        region too short to hold a slice of each kernel takes every slice."""
        inside = [s for s in self.slices if start <= s[0] < end]
        if {i for _, _, i in inside} != set(range(len(KERNELS))):
            inside = self.slices
        log_speed = 0.0
        for i, ref in enumerate(REFERENCE_S):
            ratios = [ref / d for _, d, k in inside if k == i]
            log_speed += math.log(sum(ratios) / len(ratios))
        return math.exp(log_speed / len(KERNELS))

    def seconds(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` at reference speed, slices excluded."""
        slices = sum(d for t, d, _ in self.slices if start <= t < end)
        return (end - start - slices) * self.speed(start, end)
