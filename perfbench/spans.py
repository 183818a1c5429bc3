"""Spans around the layer functions that histoseg.cli looks up at call time.

The tracer swaps each name in the module's namespace for a wrapper that
records a span, and puts the originals back afterwards, so the program's
source stays untouched.  Spans stay in memory until the run ends.
"""

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an op's root span
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    result = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(k.start, s.start), min(k.end, s.end)) for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(s.end - s.start - covered)
    return result


class Tracer:
    """Records spans for calls into `names` of `namespace` while installed."""

    def __init__(self, namespace, names, on_call):
        self.namespace = namespace
        self.names = names
        self.on_call = on_call  # on_call(name, args, kwargs, result) after each call
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: dict = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def install(self, op: int) -> None:
        self.op = op
        for name in self.names:
            fn = getattr(self.namespace, name, None)
            if fn is None:  # a name the module no longer has counts as zero calls
                continue
            self._saved[name] = fn
            setattr(self.namespace, name, self._wrap(name, fn))

    def restore(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.namespace, name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.on_call(name, args, kwargs, result)
            return result

        return traced
