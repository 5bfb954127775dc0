"""Machine-speed probe that puts op timings on a common footing.

On a shared virtual machine the same Python code runs up to 1.8x slower
while neighbours are busy, and the fast and slow phases alternate within
a second. A run of this benchmark sees some mix of them, so raw wall times
drift by 20-40% between runs. To take that out, a small allocation-heavy
probe (dicts, tuples and f-strings, like the compiler's own object churn)
runs every TICK_S from a timer signal, inside the measured ops. An op's
time, less the probe time inside it, is scaled by NOMINAL_S over the
harmonic mean of the probe times around it: the time it would have taken
on a machine where the probe always takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# Probe time on a quiet 2-vCPU x86-64 KVM guest, Python 3.11.
NOMINAL_S = 0.0003
TICK_S = 0.05
# Probes this far before and after an op also describe its machine speed;
# it keeps at least ten probes around even the shortest op.
WINDOW_S = 0.25


def _probe_work() -> int:
    rows = []
    for i in range(500):
        rows.append({"name": f"S{i}", "n": i, "pair": (i, i + 1)})
    return len(rows)


class SpeedTicker:
    """Probe times sampled every TICK_S of wall time while it is entered."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the probe must neither trigger nor time a collection
        started = time.perf_counter()
        _probe_work()
        self.seconds.append(time.perf_counter() - started)
        self.at.append(started)
        if enabled:
            gc.enable()

    def __enter__(self) -> SpeedTicker:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Wall time from *start* to *end*, less probes, at nominal speed."""
        inside = self.seconds[bisect.bisect_left(self.at, start):bisect.bisect_left(self.at, end)]
        around = self.seconds[bisect.bisect_left(self.at, start - WINDOW_S):
                              bisect.bisect_right(self.at, end + WINDOW_S)] or self.seconds
        # Probes sample wall time uniformly, so the harmonic mean of their
        # durations is the probe time per unit of work done over the window.
        harmonic = len(around) / sum(1 / s for s in around)
        return (end - start - sum(inside)) * NOMINAL_S / harmonic
