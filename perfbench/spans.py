"""In-memory span tracer for the benchmark's traced run.

A span records a name, a start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started (its parent), the
batch it belongs to (``-1`` outside batches) and a dict of counters.
Calls too frequent to deserve a span each (the overflow peel runs
thousands of times per batch) are booked as *leaves*: a call count and
a time total on the innermost open span.

A span's self time is its duration minus the durations of its child
spans and the time of its leaves. Self times of a tree add up to the
root's duration, so the layers' self times partition a batch.

Spans stay in memory; :meth:`Tracer.write_jsonl` writes them out once
the benchmark ends.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["Span", "Tracer", "self_seconds"]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    batch: int
    end: float | None = None
    counters: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "batch": self.batch,
            "counters": self.counters,
            "leaves": self.leaves,
        }


class Tracer:
    """Nested spans with counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.batch = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.batch))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: float | None = None, **counters) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = perf_counter() if end is None else end
        span.counters.update(counters)

    def leaf(self, name: str, seconds: float) -> None:
        """Book one short call on the innermost open span."""
        if not self._stack:
            return
        entry = self.spans[self._stack[-1]].leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def wrap(self, fn, name: str, counters=None):
        """``fn`` inside a span; ``counters(result)`` returns the counters
        attached to it when the call succeeds."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            end = perf_counter()
            self.close(index, end, **(counters(result) if counters else {}))
            return result

        return traced

    def wrap_leaf(self, fn, name: str):
        """``fn`` booked as a leaf of the innermost open span."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, perf_counter() - started)

        return timed

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations and its leaves."""
    result = [span.seconds - sum(s for _, s in span.leaves.values()) for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.seconds
    return result
