"""Host normalization: a fixed pure-Python loop timed next to the work.

The hosts this benchmark runs on change speed from one second to the
next (a shared 2-core VM runs the same loop in 0.20 s or 0.37 s). A
timing taken on its own therefore says as much about the neighbours as
about the program. Every timing is instead reported in *normalized*
seconds::

    t_norm = t_raw * C_REF_S / C_local

where ``C_REF_S`` is fixed below and ``C_local`` is the median of the
calibration samples taken closest in time to the measured interval.
The calibration loop is interleaved with the work, so it is slowed by
whatever slows the work.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Steps of one calibration sample (~5 ms on the reference host).
CALIBRATION_STEPS = 6_000
#: Working set the loop walks: large enough to leave the first-level
#: caches, like the simulator's grids and tables do. A sample is one cold
#: pass over it, as the measured work's are: measured on a shared 2-core
#: VM whose vCPUs switch between a fast and a slow state, this loop slows
#: by the same factor as a scenario run or an import (about 1.45x), where
#: a loop that stays in L1, or the best of several warm repetitions,
#: slows by 1.65x to 2x and over-corrects.
_TABLE_SIZE = 60_000
_OBJECTS = 20_000

#: What one calibration sample reads on the reference host, in seconds.
#: Fixed for good: changing it rescales every normalized figure.
C_REF_S = 0.005

#: A :class:`Calibrator` samples at most this often, which keeps the
#: loop's cost to about ``C_REF_S / INTERVAL_S`` (3%) of a run.
INTERVAL_S = 0.15
#: ``C_local`` is the median of this many samples nearest an interval:
#: the host's speed can change within a second, so the window is short.
WINDOW = 5


class _Cell:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0


_working_set: tuple[dict[int, tuple[int, int]], list[_Cell]] | None = None


def _data() -> tuple[dict[int, tuple[int, int]], list[_Cell]]:
    global _working_set
    if _working_set is None:
        _working_set = (
            {i: (i, 3 * i) for i in range(_TABLE_SIZE)},
            [_Cell(i) for i in range(_OBJECTS)],
        )
    return _working_set


def calibration_loop() -> int:
    """Fixed pure-Python work: pseudo-random dict and attribute traffic.

    The mix mirrors what the simulator's hot loops do — dict lookups,
    tuple unpacking, attribute loads and stores, integer arithmetic —
    over a working set of a few megabytes. Every call does the same
    work: the cells' totals wrap at 256, so they stay small cached ints
    however many samples a run takes.
    """
    table, cells = _data()
    acc, x = 0, 12345
    for _ in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        first, second = table[x % _TABLE_SIZE]
        cell = cells[x % _OBJECTS]
        cell.total = (cell.total + (second & 3)) & 0xFF
        acc ^= first
    return acc


def calibration_sample() -> float:
    """Raw seconds one calibration loop takes right now."""
    _data()  # built once, outside the timing
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class Calibrator:
    """Calibration samples interleaved with measured work.

    ``maybe_sample()`` between operations takes a sample when at least
    :data:`INTERVAL_S` has passed since the last one. ``normalize()``
    scales an interval by the median of the :data:`WINDOW` samples
    nearest to its midpoint.
    """

    def __init__(self) -> None:
        self._at: list[float] = []
        self._seconds: list[float] = []
        self._last = float("-inf")
        self.spent_s = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        seconds = calibration_sample()
        self.record(start + seconds / 2, seconds)
        self._last = time.perf_counter()
        self.spent_s += self._last - start
        return seconds

    def record(self, at: float, seconds: float) -> None:
        """Add one calibration sample taken around time ``at``."""
        self._at.append(at)
        self._seconds.append(seconds)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def c_local(self, at: float) -> float:
        """Median of the :data:`WINDOW` samples taken closest to ``at``."""
        if not self._at:
            raise RuntimeError("no calibration sample taken yet")
        index = bisect.bisect_left(self._at, at)
        lo = max(0, index - WINDOW // 2)
        hi = min(len(self._at), lo + WINDOW)
        lo = max(0, hi - WINDOW)
        return statistics.median(self._seconds[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of the raw interval ``[start, end]``."""
        return (end - start) * C_REF_S / self.c_local((start + end) / 2)

    def median(self) -> float:
        return statistics.median(self._seconds)

    def spread(self) -> float:
        """Interquartile range of all samples as a share of their median."""
        if len(self._seconds) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self._seconds, n=4)
        return (q3 - q1) / statistics.median(self._seconds)

    def __len__(self) -> int:
        return len(self._seconds)
