"""Machine speed at the moment of measurement.

The benchmark box is shared and its speed drifts by tens of percent within
seconds, in process CPU time as well as wall time. Every timed interval is
therefore bracketed by a short reference slice, and a timer runs one more
slice every SAMPLE_PERIOD_S inside long intervals. Each stretch of program
time between two slices is scaled by the reference box's slice time over the
local slice time, which reports the interval in seconds at the reference
box's speed. The slice never touches the package under test.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median slice time on the reference box: 2 cores, Linux x86_64,
# Python 3.11.7, numpy 2.4.6 with one OpenBLAS thread.
REF_SLICE_S = 0.0026
SAMPLE_PERIOD_S = 0.1

_SMALL_A = np.array([0.6, 0.8j, 0.0])
_SMALL_B = np.array([0.0, 0.6, 0.8])
_WIDE = np.exp(1j * np.linspace(0.0, 6.0, 4096))


def reference_slice() -> float:
    """Run the fixed mix once; return a value so no step can be skipped."""
    acc = 0
    table = {}
    for k in range(600):
        table[k & 31] = acc
        acc = (acc * 31 + k) & 0xFFFF
    total = float(acc)
    for _ in range(60):
        joint = np.kron(_SMALL_A, _SMALL_B)
        probs = np.abs(joint) ** 2
        total += float(np.cumsum(probs)[-1]) + float(np.abs(np.vdot(joint, joint)))
    total += float(np.abs(np.cumsum(_WIDE * _WIDE.conj()))[-1])
    return total


class SpeedClock:
    """Reference slices taken at interval edges and on a periodic timer.

    `samples` holds (start, end) of every slice in time order. Only one slice
    runs at a time: a timer tick that lands inside a slice is dropped.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self) -> int:
        """Run one slice now; return its index in `samples`."""
        if self._busy:
            return len(self.samples) - 1
        self._busy = True
        try:
            start = time.perf_counter()
            reference_slice()
            end = time.perf_counter()
            self.samples.append((start, end))
            return len(self.samples) - 1
        finally:
            self._busy = False

    def _on_tick(self, signum, frame) -> None:
        self.sample()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """Call fn between two slices. Returns (result, seconds at reference
        speed, raw seconds), both net of the slices that ran inside."""
        first = self.sample()
        result = fn()
        last = self.sample()
        return (result,) + self.interval(first, last)

    def interval(self, first: int, last: int) -> tuple[float, float]:
        durations = [end - start for start, end in self.samples]
        scaled = raw = 0.0
        for k in range(first, last):
            gap = self.samples[k + 1][0] - self.samples[k][1]
            # The median of the slices around a gap damps a slice that was
            # itself preempted.
            local = statistics.median(durations[max(0, k - 1): k + 3])
            scaled += gap * REF_SLICE_S / local
            raw += gap
        return scaled, raw

    def speed_factor(self) -> float:
        """Reference time over local time, from every slice so far."""
        return REF_SLICE_S / statistics.median(e - s for s, e in self.samples)
