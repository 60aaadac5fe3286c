"""In-memory spans around the benchmark's calls into the library, self-time
accounting, and the percentile rule used for per-instance latencies.

Standard library only, so that importing it costs nothing inside the
measured set-up time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None
    error: str | None


class _OpenSpan:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1].id if tr._stack else None
        tr._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        error = exc_type.__name__ if exc_type is not None else None
        tr.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, tr.instance, error)
        )
        return False


class Tracer:
    """Records spans and counters while enabled; every call is a no-op otherwise.

    Span ids are unique within one tracer; ``instance`` tags every span with
    the instance that caused it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.instance: int | None = None
        self._stack: list[_OpenSpan] = []
        self._next_id = 0
        self._null = nullcontext()

    def span(self, name: str):
        return _OpenSpan(self, name) if self.enabled else self._null

    def add(self, counter: str, amount: float) -> None:
        if self.enabled:
            self.counters[counter] += amount


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile's rank."""
    return n - math.ceil(p / 100.0 * n)
