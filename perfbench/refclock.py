"""Reference clock: the host's speed, sampled beside the timed work.

On a shared host the CPU speed seen by one process changes by itself, by
tens of percent over seconds to minutes, as other tenants load the
machine.  Raw wall times then spread between runs far more than any
change to the program would move them.

A sampler process pinned to the same CPU as the timed work runs a fixed
reference unit (pure Python and a little numpy on cache-sized arrays;
no clusterlm code) every ``PERIOD_S`` seconds and records the CPU time
each unit took.  ``Speed.scaled`` turns a wall-clock interval into
seconds at reference speed: every piece of the interval is weighted by
``REF_UNIT_S`` over the unit time measured at that moment (median of
``SMOOTH`` neighbouring samples).  A program that does the same work
reads about the same scaled time whether the host is fast or slow, and a
program that does less work reads less, because the reference unit is
not part of it.

Usage of the sampler process on its own:
    python3 perfbench/refclock.py CPU
It prints ``ready`` once it samples, and on SIGTERM prints its samples
as one JSON list of ``[start, unit_cpu_seconds]`` and exits.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.02  # pause between reference units (about 10% of the CPU)
SMOOTH = 5  # samples in the running median of the unit time
# Nominal CPU time of one reference unit: scaled seconds equal wall
# seconds when the unit runs this fast.
REF_UNIT_S = 0.002


def _reference_unit_factory():
    import numpy as np

    x = np.linspace(0.5, 1.5, 16_384)
    idx = np.arange(16_384, dtype=np.int64) % 1_024
    acc = np.zeros(1_024)

    def unit() -> float:
        s = 0
        for i in range(10_000):
            s += i * i % 7
        for _ in range(6):
            y = x * np.log(x)
            np.add.at(acc, idx, y)
        return s + float(acc[0])

    return unit


def sample(cpu: int) -> None:
    """Sampler main loop; runs until SIGTERM or until its parent is gone."""
    os.sched_setaffinity(0, {cpu})
    unit = _reference_unit_factory()
    unit()  # warm-up
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    samples = []
    print("ready", flush=True)
    while not stop and os.getppid() == parent:
        start = time.perf_counter()
        cpu0 = time.thread_time()
        unit()
        samples.append((start, time.thread_time() - cpu0))
        time.sleep(PERIOD_S)
    print(json.dumps(samples), flush=True)


class Sampler:
    """The sampler process, pinned to ``cpu``; ``stop`` returns a Speed."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)],
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference sampler did not start")

    def stop(self) -> Speed:
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        return Speed(json.loads(out))

    def close(self) -> None:
        """Stop the sampler if it still runs, without reading it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Speed:
    """Reference-unit CPU time as a step function of (perf_counter) time."""

    def __init__(self, samples: list):
        if not samples:
            raise ValueError("no reference samples")
        self.times = [t for t, _ in samples]
        unit = [u for _, u in samples]
        half = SMOOTH // 2
        self.unit = [
            statistics.median(unit[max(0, i - half): i + half + 1]) for i in range(len(unit))
        ]

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed spent between ``start`` and ``end``."""
        # sample i holds from its start until the next sample's; the first
        # also covers the time before it and the last the time after it
        total = 0.0
        i = max(0, bisect.bisect_right(self.times, start) - 1)
        t = start
        while t < end:
            piece_end = min(self.times[i + 1], end) if i + 1 < len(self.times) else end
            total += (piece_end - t) * REF_UNIT_S / self.unit[i]
            t = piece_end
            i += 1
        return total

    def unit_ms(self, start: float, end: float) -> float:
        """Median reference-unit time between ``start`` and ``end``, in ms."""
        inside = [u for t, u in zip(self.times, self.unit) if start <= t <= end]
        return 1000.0 * statistics.median(inside or self.unit)


if __name__ == "__main__":
    sample(int(sys.argv[1]))
