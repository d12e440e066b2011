"""How fast the benchmark's CPU runs, sampled while the cases run.

On a shared machine a CPU switches, second by second, between running
Python at full speed and running it about 1.6 times slower, and each
CPU switches on its own.  A case's raw time then says as much about the
neighbours as about the program.  So the benchmark pins itself, and
with it every process it spawns, to one CPU, and a `SpeedMonitor` thread
times a fixed probe on that CPU every PROBE_EVERY_S.  A spawn's times
are scaled by PROBE_S over the mean probe time during the spawn: they
read as the seconds the spawn would take with the CPU running at the
speed at which the probe takes PROBE_S.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left

# The probe's time on the 2-core machine the benchmark's bounds were set
# on (Python 3.11), while its CPU ran at full speed.
PROBE_S = 0.5e-3
PROBE_EVERY_S = 0.05


def probe() -> int:
    """Fixed interpreter work of the kind the program does: tuple keys,
    dict stores, hashing, integer arithmetic."""
    table: dict[tuple[int, int], int] = {}
    x = 0
    for i in range(1500):
        key = (i % 409, i * 7 % 13)
        table[key] = x
        x = (x + hash(key)) % 1_000_003
    return x


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and what it later starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedMonitor:
    """Background thread that samples (start, duration) of the probe."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedMonitor:
        self._thread.start()
        while not self.durations:
            time.sleep(PROBE_EVERY_S / 10)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            probe()
            # Append the duration last: readers take len(durations).
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)
            self._stop.wait(PROBE_EVERY_S)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that normalises a time measured from t0 to t1."""
        end = len(self.durations)
        first = min(bisect_left(self.starts, t0, hi=end), end - 1)
        last = max(bisect_left(self.starts, t1, hi=end), first + 1)
        return PROBE_S / statistics.fmean(self.durations[first:last])
