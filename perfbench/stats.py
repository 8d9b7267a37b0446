"""Summary statistics shared by the workloads."""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
PERCENTILES: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when this many samples lie beyond it.
TAIL_BEYOND = 10


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank; rounded first so 99.9% of 10000 is 9990."""
    return max(1, math.ceil(round(percentile * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(percentile, len(sorted_values)) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than twenty samples no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    chosen = None
    for percentile in PERCENTILES:
        if n - _rank(percentile, n) >= TAIL_BEYOND:
            chosen = percentile
    if chosen is None:
        return ordered[-1], 100.0, n
    return nearest_rank(ordered, chosen), chosen, n


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


#: CPU seconds of one :func:`calibrate_once` on the reference host (a 2-vCPU
#: VM at its usual speed).  Only a fixed scale: it converts a measured
#: host-speed factor into "seconds at the reference speed".
REFERENCE_CALIBRATION_S = 0.00125

#: Seconds between two samples of the host monitor.
MONITOR_INTERVAL_S = 0.025

#: A timing shorter than this is scaled with the samples of a window this
#: long around it, so every factor rests on about ten samples.  The host's
#: speed swings within a second, so the samples are short and frequent.
MIN_WINDOW_S = 0.25


#: Calibrations timed right before and right after each operation that runs
#: in the benchmark's own thread.
SAMPLES_PER_SIDE = 3


def calibrate_once(clock: Callable[[], float] = time.thread_time) -> float:
    """Seconds on ``clock`` for a fixed pure-Python loop of integer and dict work.

    The CPU speed of a shared host drifts by a third within seconds, and
    its two vCPUs do not always drift together; timing this loop on the
    vCPU the workload runs on measures that drift, so the workload's times
    can be reported at a fixed reference speed.  The default clock is this
    thread's CPU time, so moments another process holds the vCPU do not
    count.
    """
    began = clock()
    table: dict = {}
    acc = 0
    for i in range(5000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 4095] = table.get(acc & 4095, 0) + 1
    sorted(table.values())
    return clock() - began


def calibrated(fn: Callable[[], object]) -> Tuple[object, float, float, float]:
    """Run ``fn`` between calibrations in this thread.

    For an operation that runs in the calling thread, on one vCPU: the
    calibrations run there too.  Returns ``(result, start, seconds,
    factor)``: when the call began, its duration as measured and the host
    slowness around it relative to the reference (2.0 = half as fast).
    """
    costs = [calibrate_once() for _ in range(SAMPLES_PER_SIDE)]
    began = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - began
    costs.extend(calibrate_once() for _ in range(SAMPLES_PER_SIDE))
    return result, began, seconds, median(costs) / REFERENCE_CALIBRATION_S


def steal_ticks(path: str = "/proc/stat") -> Tuple[int, int]:
    """``(stolen, total)`` CPU ticks of the whole machine since boot.

    From the aggregate ``cpu`` line of ``/proc/stat``.  Steal is time the
    hypervisor ran another guest on one of this machine's vCPUs; no
    calibration loop sees it, because the loop's thread is not running
    then.  ``(0, 0)`` where the file or its steal column is missing.
    """
    try:
        with open(path) as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    # user nice system idle iowait irq softirq steal; guest time that
    # follows is already counted in user and nice.
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the machine's CPU time stolen between two :func:`steal_ticks`."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def quiet_rounds(shares: Sequence[float], count: int, quiet: float) -> List[int]:
    """Indices, in order, of the rounds whose timings count.

    The ``count`` least stolen rounds, less those that saw more than
    ``quiet`` steal; when none was that quiet, the least stolen round alone.
    Earlier rounds win ties.
    """
    order = sorted(range(len(shares)), key=lambda i: (shares[i], i))
    chosen = [i for i in order[:count] if shares[i] <= quiet]
    return sorted(chosen or order[:1])


class HostMonitor:
    """A helper process that samples the host's speed for a whole run.

    For work spread over every vCPU (a process pool, a server and its
    callers, interpreter start-up).  Forty times a second it moves to the
    next vCPU, times :func:`calibrate_once` there in its own CPU time and
    appends ``<perf_counter> <cpu seconds>`` to ``path``, so a window's
    samples cover every vCPU.  ``perf_counter`` is the system-wide
    monotonic clock, so other processes can place the samples next to their
    own timings (:class:`HostLog`).  Use as a context manager; the helper
    is stopped and waited for on exit.
    """

    _CODE = (
        "import itertools, os, sys, time\n"
        "from perfbench.stats import MONITOR_INTERVAL_S, calibrate_once\n"
        "cpus = sorted(os.sched_getaffinity(0))\n"
        "with open(sys.argv[1], 'a', buffering=1) as out:\n"
        "    for n in itertools.count():\n"
        "        os.sched_setaffinity(0, {cpus[n % len(cpus)]})\n"
        "        at = time.perf_counter()\n"
        "        out.write(f'{at!r} {calibrate_once()!r}\\n')\n"
        "        time.sleep(MONITOR_INTERVAL_S)\n"
    )

    def __init__(self, path: Path, env: Optional[dict] = None) -> None:
        self.path = path
        self._env = env

    def __enter__(self) -> "HostMonitor":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, "-c", self._CODE, str(self.path)], env=self._env,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=30)


class HostLog:
    """The samples a :class:`HostMonitor` has written so far."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.times: List[float] = []
        self.costs: List[float] = []

    def refresh(self) -> "HostLog":
        """Re-read the monitor's file; a half-written last line is skipped."""
        times, costs = [], []
        for line in self.path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                times.append(float(parts[0]))
                costs.append(float(parts[1]))
        self.times, self.costs = times, costs
        return self

    def factor(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]`` relative to the reference.

        The median sample of the window (widened to :data:`MIN_WINDOW_S`
        around its middle), over the reference; 2.0 = half as fast.
        """
        middle = (start + end) / 2.0
        half = max(end - start, MIN_WINDOW_S) / 2.0
        lo = bisect.bisect_left(self.times, middle - half)
        hi = bisect.bisect_right(self.times, middle + half)
        if hi <= lo:
            raise RuntimeError(
                f"no host-speed samples between {middle - half:.3f} and "
                f"{middle + half:.3f} (monitor log {self.path})")
        return median(self.costs[lo:hi]) / REFERENCE_CALIBRATION_S

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds / self.factor(start, start + seconds)
