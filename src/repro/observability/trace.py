"""Nested phase spans (the ``-time-passes`` half of the instrumentation).

A :class:`Span` is one timed region — a compiler phase, a benchmark
evaluation, a whole ``compile_loop`` call — with a name, free-form
attributes, and children for the phases nested inside it.  The
:class:`SpanTracer` keeps the stack of open spans and the forest of
completed roots.  Timing uses ``time.perf_counter_ns`` so sub-millisecond
phases are resolvable.

The tracer itself is always cheap; the *zero-overhead-when-disabled*
guarantee lives one level up, in :mod:`repro.observability.recorder`,
which hands out a shared null context manager when no recorder is
installed so instrumented code never reaches this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region of the pipeline.

    ``counters`` holds the effort counters recorded while this span was
    the *innermost* open span — the per-phase attribution the profiler
    turns into a call-tree profile.  They are "self" counters: a span's
    cumulative effort is its own plus its descendants'.
    """

    name: str
    attrs: dict[str, object]
    start_ns: int
    end_ns: int | None = None
    children: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Time spent in this span excluding its children."""
        return self.duration_ns - sum(c.duration_ns for c in self.children)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "counters": dict(sorted(self.counters.items())),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        """Yield this span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class SpanTracer:
    """Stack of open spans plus the forest of finished roots."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def start(self, name: str, attrs: dict[str, object]) -> Span:
        span = Span(name=name, attrs=attrs, start_ns=time.perf_counter_ns())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        # Tolerate mismatched finishes (an exception may unwind several
        # spans): pop until the finished span is off the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end_ns is None:
                top.end_ns = span.end_ns

    def path(self) -> str:
        """Slash-joined names of the currently open spans."""
        return "/".join(s.name for s in self._stack)

    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        self.roots.clear()
        self._stack.clear()


class SpanContext:
    """Context manager opening one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: SpanTracer, name: str, attrs: dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start(self._name, self._attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        assert self.span is not None
        self._tracer.finish(self.span)
