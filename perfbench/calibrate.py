"""Calibration of measured times for the speed of the host at that moment.

The benchmark's host is a share of a machine whose speed changes by up to
a factor of two from second to second, as other tenants come and go, and
drifts by 20-40% over minutes.  Every time measured in a run moves with
it.  So the worker splits each round into segments of at most about a
second and times a fixed reference loop at every boundary; ``run.py``
divides each segment's time by its slowdown, the mean of the loop's times
just before and just after it over REF_NOMINAL_S.  Over 40 s of such
pairs on a busy host, the median of 5 s chunks spread 0.47-0.53 of their
median raw and 0.05-0.08 calibrated.

The loop uses no ``entroute`` code, so a change to the program leaves it
alone and shows in full in the calibrated times.  It does what the
program's hot loops do: float arithmetic, tuples on a heap, dict updates
and small function calls.
"""

from __future__ import annotations

import heapq
import math
import time

# About the median time of one reference() call on the 2-vCPU Xeon virtual
# machine the baseline was recorded on (Python 3.11), so that calibrated
# times read close to that machine's seconds.
REF_NOMINAL_S = 0.025
REF_STEPS = 15_000


def _step(x: float) -> float:
    return (x * 3.9 * (1.0 - x)) % 1.0


def reference() -> float:
    """Run the reference loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    x = 0.5
    for i in range(REF_STEPS):
        x = _step(x)
        k = int(x * 512)
        table[k] = table.get(k, 0.0) + math.log1p(x)
        heapq.heappush(heap, (x, i, k))
        if len(heap) > 64:
            heapq.heappop(heap)
    if len(table) < 2:  # never true; keeps the loop's work observable
        raise AssertionError("reference loop collapsed")
    return time.perf_counter() - t0


class Clock:
    """Splits rounds into segments and, when calibrating, times the
    reference loop at every segment boundary.

    ``segments`` holds [wall_s, cpu_s, slowdown] per segment of the current
    round; slowdown is None when not calibrating.  The reference time after
    one round's last segment is also the one before the next round's first.
    """

    def __init__(self, calibrating: bool):
        self.calibrating = calibrating
        self.ref_s = reference() if calibrating else None
        self.start()

    def start(self) -> None:
        """Open the first segment of a round."""
        self.segments: list = []
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    @property
    def index(self) -> int:
        """Index of the open segment."""
        return len(self.segments)

    def lap(self) -> None:
        """Close the open segment and open the next one."""
        wall, cpu = time.perf_counter() - self._wall, time.process_time() - self._cpu
        slowdown = None
        if self.calibrating:
            ref = reference()
            slowdown = (self.ref_s + ref) / 2.0 / REF_NOMINAL_S
            self.ref_s = ref
        self.segments.append([wall, cpu, slowdown])
        self._wall, self._cpu = time.perf_counter(), time.process_time()
