"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that encloses it and the operation it belongs to.  Spans stay in a
list until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while ``enabled``; otherwise records nothing."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.op)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for a, b in sorted(children[sp.id]):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = sp.duration - covered
    return out


def self_time_by_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Operation id -> span name -> summed self time of that op's spans."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        out[sp.op][sp.name] += own[sp.id]
    return out
