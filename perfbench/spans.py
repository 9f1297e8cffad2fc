"""Span records and the arithmetic the benchmark reports from them.

A span is one call into a layer, recorded by the benchmark's wrappers
(:mod:`layers`) around the program's public API: a name, a start and an end
on ``time.perf_counter``'s clock, the recording thread, and optional
attributes (rows of a model pass, the content key of a request).  Spans are
kept in memory and summarised when the run ends.

This module imports nothing from the program, so its arithmetic is tested on
synthetic spans (``test_perfbench.py``).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One recorded call: ``name`` ran from ``start`` to ``end`` on ``thread``."""

    name: str
    start: float
    end: float
    thread: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Append-only in-memory span log shared by every wrapper of one run.

    ``list.append`` is atomic under the interpreter lock, so wrappers on the
    gateway loop, the micro-batcher thread and executor threads record
    without a lock of their own.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.spans.append(Span(name, start, end, threading.get_ident(), attrs))

    @contextmanager
    def timed(self, name: str, **attrs) -> Iterator[None]:
        """Record one span around the ``with`` block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), **attrs)

    def reset(self) -> None:
        self.spans = []

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default).

    An empty sample has no percentile; it reads as ``0.0`` so that a layer
    a workload never enters reports zero time.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(parent: Span, children: Iterable[Span]) -> float:
    """``parent``'s duration minus the part of it its children cover.

    Children are the spans of the same thread that overlap the parent; each
    is clipped to the parent's interval, and nested or overlapping children
    are counted once (a feature call inside a model pass inside a window).
    """
    clipped = [
        (max(child.start, parent.start), min(child.end, parent.end))
        for child in children
        if child is not parent and child.thread == parent.thread
    ]
    return parent.duration - union_length(clipped)


def self_times(parents: Sequence[Span], children: Sequence[Span]) -> List[float]:
    """:func:`self_time` of every parent against one pool of child spans.

    Children are indexed by start time, so each parent only looks at the
    children that can overlap it: those starting before its end and no
    earlier than its start minus the longest child.
    """
    ordered = sorted(children, key=lambda span: span.start)
    starts = [span.start for span in ordered]
    longest = max((span.duration for span in ordered), default=0.0)
    results = []
    for parent in parents:
        low = bisect.bisect_left(starts, parent.start - longest)
        high = bisect.bisect_left(starts, parent.end)
        candidates = [span for span in ordered[low:high] if span.end > parent.start]
        results.append(self_time(parent, candidates))
    return results

