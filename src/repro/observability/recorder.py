"""The :class:`Recorder` facade and the process-wide active recorder.

Instrumented code follows one pattern::

    rec = active_recorder()           # one global read per phase entry
    with maybe_span(rec, "schedule", loop=loop.name):
        ...
        if rec is not None:
            rec.count("sched.ii_attempts", attempts)
            rec.remark("scheduler", loop.name, "ii-rejected", message, ii=ii)

When nothing is recording, ``active_recorder()`` returns ``None`` (a
module-global read) and ``maybe_span`` returns one shared null context
manager — no allocation, no timing calls, no dictionary traffic — so the
compiler pays nothing for carrying the instrumentation.

Enablement, in precedence order:

1. explicitly, via :func:`install` / :func:`recording` (what the CLI
   ``--profile`` / ``--trace-json`` flags do);
2. the ``REPRO_TRACE`` / ``REPRO_PROFILE`` environment variables,
   checked once at import: ``REPRO_TRACE=path`` writes a JSON trace to
   ``path`` at exit; ``REPRO_PROFILE=path`` writes a hierarchical
   profile (see :mod:`repro.profiling`) at exit, the way
   ``--profile=path`` does (``-`` prints its call tree).  This reaches
   runs that never parse CLI flags (pytest, pytest-benchmark, library
   embedders).
"""

from __future__ import annotations

import os
from contextlib import nullcontext

from repro.observability.remarks import RemarkLog
from repro.observability.stats import StatRegistry
from repro.observability.trace import SpanContext, SpanTracer

_NULL_SPAN = nullcontext()


class Recorder:
    """One recording session: a span forest, a stat registry, a remark log."""

    def __init__(self) -> None:
        self.tracer = SpanTracer()
        self.stats = StatRegistry()
        self.remarks = RemarkLog()

    def span(self, name: str, **attrs: object) -> SpanContext:
        return SpanContext(self.tracer, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        self.stats.add(name, n)
        # Attribute the effort to the innermost open phase so the
        # profiler can turn the span tree into a call-tree profile.
        span = self.tracer.current()
        if span is not None:
            span.count(name, n)

    def counter(self, name: str) -> int:
        return self.stats.counter(name)

    def remark(
        self,
        pass_name: str,
        loop: str,
        reason: str,
        message: str,
        **data: object,
    ):
        """One optimization remark: why a pass decided what it decided."""
        return self.remarks.add(
            pass_name, loop, reason, message, self.tracer.path(), data
        )

    def reset(self) -> None:
        self.tracer.reset()
        self.stats.reset()
        self.remarks.reset()


_ACTIVE: Recorder | None = None


def active_recorder() -> Recorder | None:
    """The installed recorder, or ``None`` when instrumentation is off."""
    return _ACTIVE


def install(recorder: Recorder | None) -> Recorder | None:
    """Make ``recorder`` the process-wide active recorder (``None`` turns
    instrumentation off).  Returns the previously active recorder."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


class _RecordingContext:
    """Install a recorder for a ``with`` block, restoring the previous one."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._previous: Recorder | None = None

    def __enter__(self) -> Recorder:
        self._previous = install(self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> None:
        install(self._previous)


def recording(recorder: Recorder | None = None) -> _RecordingContext:
    """``with recording() as rec:`` — scoped instrumentation session."""
    return _RecordingContext(recorder or Recorder())


def maybe_span(rec: Recorder | None, name: str, **attrs: object):
    """A span on ``rec``, or the shared null context when ``rec`` is None."""
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, **attrs)


# ----------------------------------------------------------------------
# Environment-variable fallback (checked once, at import).


def _install_from_env() -> None:
    trace_path = os.environ.get("REPRO_TRACE", "").strip()
    profile_path = os.environ.get("REPRO_PROFILE", "").strip()
    if not trace_path and not profile_path:
        return
    recorder = Recorder()
    install(recorder)

    import atexit

    def _flush() -> None:
        if trace_path:
            from repro.observability.export import write_trace

            write_trace(recorder, trace_path)
        if profile_path:
            from repro.profiling import emit_profile

            emit_profile(recorder, profile_path, quiet=True)

    atexit.register(_flush)


_install_from_env()
