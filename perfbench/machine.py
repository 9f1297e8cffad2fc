"""Process CPU time and the host's stolen time, read around a measured window."""

from __future__ import annotations

import resource
import time
from pathlib import Path
from typing import Optional, Tuple


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``, if readable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    values = [int(value) for value in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user time.
    return steal, sum(values[:8])


def steal_share(before: Optional[Tuple[int, int]], after: Optional[Tuple[int, int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests between two reads."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def host_speed(seconds: float = 0.25) -> float:
    """Rounds per second of a fixed pure-Python loop: how fast this core runs now.

    The reference host's speed drifts by more than half between quiet and
    busy periods; recorded beside a run, this tells a slow program from a
    slow host.  It is a fact of the run, never applied to a metric.
    """
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        total = 0
        for value in range(2000):
            total += value
        rounds += 1
    return rounds / (time.perf_counter() - start)
