"""A calibration clock that runs beside the measured work.

The host's speed drifts by up to 2x, in phases from well under a second to
minutes, and the two CPUs drift independently.  A calibration loop timed
between repetitions samples a different phase than the repetition itself,
so the ratio of the two stays as noisy as raw time.  Instead, a
low-priority thread of the benchmark process runs a fixed pure-Python loop
*during* the repetitions, on the same CPU (the process and its children
are pinned to one).  The scheduler gives it short slices spread over every
interval, so its CPU time per loop chunk over a repetition's interval is
the speed of the CPU that the repetition saw.
"""

from __future__ import annotations

import bisect
import cmath
import os
import threading
import time
from array import array

CHUNK = 500  # loop iterations per sample, ~0.25 ms on the reference host
NICE = 10  # the thread's priority: ~10% of the CPU against a busy task


def _chunk(z: complex) -> complex:
    w = complex(0.9999, 0.0001)
    for i in range(CHUNK):
        z = z * w + cmath.exp(complex(-1e-3 * i, 1e-3 * i))
    return z


class Metronome:
    """Background calibration loop; ``cost(t0, t1)`` is its CPU seconds per
    chunk between two ``time.perf_counter`` readings (comparable across
    processes on Linux, where it is CLOCK_MONOTONIC)."""

    def __init__(self):
        self._times = array("d")
        self._cpu = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="metronome", daemon=True)

    def __enter__(self) -> "Metronome":
        self._thread.start()
        while len(self._times) < 2:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        z = 0j
        while not self._stop.is_set():
            z = _chunk(z)
            self._cpu.append(time.thread_time())
            self._times.append(time.perf_counter())

    def cost(self, t0: float, t1: float) -> float:
        """CPU seconds per chunk over the chunks that ended inside
        [t0, t1]."""
        times = self._times
        n = len(times)  # _cpu is appended first, so it has n entries too
        first = bisect.bisect_left(times, t0, 0, n)
        last = bisect.bisect_right(times, t1, 0, n) - 1
        if last - first < 4:
            raise RuntimeError(f"calibration thread ran {max(last - first, 0)} chunks in "
                               f"[{t0:.3f}, {t1:.3f}]; the interval is too short")
        return (self._cpu[last] - self._cpu[first]) / (last - first)
