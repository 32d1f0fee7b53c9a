"""Machine-speed gauge: scales measured times to a fixed reference speed.

The 2-vCPU guests this benchmark runs on share their host, and the speed of
the same single-threaded code drifts with the neighbours' load: a 11EIL51
colony call takes 27 ms in one minute and 45 ms in the next, with CPU time
equal to wall time. A median over one run cannot remove a drift that lasts the
whole run. So while a workload runs, an interval timer interrupts it every
`every_s` seconds to time a fixed reference computation of the benchmark's own
(no gtsp code), and each measured operation's time is scaled by

    reference time at the reference speed / mean reading around the operation

where the readings around it are those taken while it ran or within
`every_s` of its start or end, so an 8 s exact solve is scaled by the speed
during those 8 s, not at its two ends. The time the readings take is left out
of every measured time: `now()` is a clock that stops while the gauge reads.

The reference computation resembles the workload's own mix:

- "python": a loop of small numpy calls and Python list work, like one ant's
  node choices and the exact solver's search;
- "memory": row and column gathers and a full scan over a 32 MB float64
  matrix, like the colony's per-element gathers and n^2 scans on a 2000-node
  instance.

A workload gauges with one of them or with their sum. `REFERENCE_S` holds
each computation's time at the reference speed: its fast-state time on an
Intel Xeon 2-vCPU KVM guest (Python 3.11, numpy 2.4). A time scaled by the
gauge therefore reads as the wall time on that guest when nothing slows it
down.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = {"python": 1.4e-3, "memory": 1.6e-3}

_SMALL = np.random.default_rng(0).random(64)
_MASK = _SMALL > 0.5


def python_kernel() -> float:
    total = 0.0
    for k in range(200):
        idx = np.flatnonzero(_MASK)
        weights = _SMALL[idx] ** 2.0
        cumulative = np.cumsum(weights)
        j = int(np.searchsorted(cumulative, cumulative[-1] * 0.5))
        total += float(weights[j]) + sum([i * k for i in range(6)])
    return total


class _Memory:
    """A 2000 x 2000 float64 matrix (32 MB, beyond the L2 cache) and a fixed
    set of 400 columns; built once, when a workload first gauges with it."""

    matrix = None
    columns = None

    @classmethod
    def kernel(cls) -> float:
        if cls.matrix is None:
            rng = np.random.default_rng(1)
            cls.matrix = rng.random((2000, 2000))
            cls.columns = rng.integers(0, 2000, 400)
        total = 0.0
        for k in cls.columns[:40]:
            total += float(cls.matrix[k, cls.columns].sum() + cls.matrix[cls.columns, k].sum())
        return total + float(cls.matrix.max())


KERNELS = {"python": python_kernel, "memory": _Memory.kernel}


class Gauge:
    """Samples the machine's speed while it is entered (the main thread's
    SIGALRM handler takes the readings) and scales measured items.

    Time operations with `now()`, give each item `start`, `end` and `elapsed`
    from it, and call `scale(items)` after leaving the block: it sets each
    item's `scaled`.
    """

    def __init__(self, kinds: list[str], every_s: float) -> None:
        self.kernels = [KERNELS[k] for k in kinds]
        self.reference_s = sum(REFERENCE_S[k] for k in kinds)
        self.every_s = every_s
        self.stamps: list[float] = []  # now() at each reading
        self.readings: list[float] = []  # seconds the reference computation took
        self._spent = 0.0
        self._previous_handler = None

    def now(self) -> float:
        """perf_counter() minus the time spent taking readings."""
        return time.perf_counter() - self._spent

    def _read(self, *_signal) -> None:
        stamp = self.now()
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        took = time.perf_counter() - start
        self.stamps.append(stamp)
        self.readings.append(took)
        self._spent += took

    def __enter__(self) -> "Gauge":
        for _ in range(3):  # warm-up: first calls, caches, the memory matrix
            for kernel in self.kernels:
                kernel()
        self._read()
        self._previous_handler = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._read()

    def scale(self, items) -> None:
        for item in items:
            lo = bisect.bisect_left(self.stamps, item.start - self.every_s)
            hi = bisect.bisect_right(self.stamps, item.end + self.every_s)
            around = self.readings[lo:hi] or [self.readings[min(lo, len(self.readings) - 1)]]
            item.scaled = item.elapsed * self.reference_s / statistics.fmean(around)

    def summary(self) -> dict:
        r = self.readings
        return {
            "reference_s": self.reference_s,
            "every_s": self.every_s,
            "readings": len(r),
            "median_s": statistics.median(r),
            "min_s": min(r),
            "max_s": max(r),
            "speed_vs_reference": self.reference_s / statistics.median(r),
            "time_spent_s": self._spent,
        }
