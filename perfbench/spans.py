"""In-memory spans, the wrappers that record them, and self-time arithmetic.

A span is (name, start, end, parent). Wrappers are installed where a caller
looks a function up -- a module global or a class attribute -- so the program
under test is never edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records nested spans from one thread, plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Return fn recording a span per call; after(tracer, args, result)
        runs once the span is closed, to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count_bytes(self, key: str, fn):
        """Return fn(nbytes) that also counts calls and bytes under key."""

        def counted(nbytes):
            self.counters[key + ".calls"] += 1
            self.counters[key + ".bytes"] += nbytes
            return fn(nbytes)

        return counted


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed duration."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s.end - s.start
    return out


def under(spans: list[Span], name: str, ancestor: str) -> list[Span]:
    """Spans called `name` with some enclosing span called `ancestor`."""
    found = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        if p >= 0:
            found.append(s)
    return found


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(current owner.attr)."""
        old = getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
