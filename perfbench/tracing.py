"""In-memory spans around the benchmark's calls into each toolchain layer.

A span records its name, start and end (``time.perf_counter`` seconds), the
span that encloses it and the operation it belongs to.  Spans stay in memory
and are written out once, when the benchmark ends.  A disabled tracer hands
out one shared no-op context, so untraced runs pay a method call per span and
nothing else.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.id)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, op: str):
        """Context manager timing one call; the innermost open span is its parent."""
        if not self.enabled:
            return _NO_SPAN
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, op, parent, 0.0)
        self.spans.append(s)
        return _Open(self, s)

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def check_spans(spans: list[Span]) -> list[str]:
    """Problems that make a span list malformed; empty when it is sound."""
    ids = {s.id for s in spans}
    problems = []
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        if s.parent not in ids:
            problems.append(f"span {s.id} {s.name} has missing parent {s.parent}")
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end or s.op != p.op:
            problems.append(f"span {s.id} {s.name} escapes parent {p.id} {p.name}")
    problems.extend(f"span {i} has negative self time"
                    for i, t in self_times(spans).items() if t < 0)
    return problems
