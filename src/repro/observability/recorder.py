"""The :class:`Recorder` facade and the process-wide active recorder.

Instrumented code follows one pattern::

    rec = active_recorder()           # one global read per phase entry
    with maybe_span(rec, "schedule", loop=loop.name):
        ...
        if rec is not None:
            rec.count("sched.ii_attempts", attempts)
            rec.event("sched.budget_exhausted", ii=ii)

When nothing is recording, ``active_recorder()`` returns ``None`` (a
module-global read) and ``maybe_span`` returns one shared null context
manager — no allocation, no timing calls, no dictionary traffic — so the
compiler pays nothing for carrying the instrumentation.

Enablement, in precedence order:

1. explicitly, via :func:`install` / :func:`recording` (what the CLI
   ``--stats`` / ``--trace-json`` flags do);
2. the ``REPRO_STATS`` / ``REPRO_TRACE`` / ``REPRO_PROFILE`` environment
   variables, checked once at import: ``REPRO_STATS=1`` installs a
   counters-only recorder that prints the stats table to stderr at exit;
   ``REPRO_TRACE=path`` additionally records spans/events and writes a
   JSON trace to ``path`` at exit; ``REPRO_PROFILE=path`` writes a
   hierarchical profile (see :mod:`repro.profiling`) at exit, the way
   ``--profile=path`` does (``-`` prints its call tree).  This
   reaches runs that never parse CLI flags (pytest, pytest-benchmark,
   library embedders).
"""

from __future__ import annotations

import os
from contextlib import nullcontext

from repro.observability.events import EventLog
from repro.observability.stats import StatRegistry
from repro.observability.trace import SpanContext, SpanTracer

_NULL_SPAN = nullcontext()


class Recorder:
    """One recording session: a span forest, a stat registry, an event log.

    ``trace=False`` turns spans into no-ops (counters/events still
    record).
    """

    def __init__(self, *, trace: bool = True):
        self.trace_enabled = trace
        self.tracer = SpanTracer()
        self.stats = StatRegistry()
        self.events = EventLog()

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attrs: object):
        if not self.trace_enabled:
            return _NULL_SPAN
        return SpanContext(self.tracer, name, attrs)

    # -- counters / distributions --------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.stats.add(name, n)
        if self.trace_enabled:
            # Attribute the effort to the innermost open phase so the
            # profiler can turn the span tree into a call-tree profile.
            span = self.tracer.current()
            if span is not None:
                span.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.stats.observe(name, value)

    def counter(self, name: str) -> int:
        return self.stats.counter(name)

    # -- events --------------------------------------------------------

    def event(self, name: str, **data: object):
        return self.events.emit(name, self.tracer.path(), data)

    def remark(
        self,
        pass_name: str,
        loop: str,
        reason: str,
        message: str,
        **data: object,
    ):
        """One optimization remark: why a pass decided what it decided."""
        return self.events.remark(
            pass_name, loop, reason, message, self.tracer.path(), data
        )

    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.tracer.reset()
        self.stats.reset()
        self.events.reset()

    def to_dict(self) -> dict[str, object]:
        from repro.observability.export import recorder_to_dict

        return recorder_to_dict(self)


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


def recording(
    recorder: Recorder | None = None, *, trace: bool = True
) -> _RecordingContext:
    """``with recording() as rec:`` — scoped instrumentation session."""
    return _RecordingContext(recorder or Recorder(trace=trace))


def maybe_span(rec: Recorder | None, name: str, **attrs: object):
    """A span on ``rec``, or the shared null context when ``rec`` is None."""
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, **attrs)


# ----------------------------------------------------------------------
# Environment-variable fallback (checked once, at import).


def _env_truthy(value: str | None) -> bool:
    return bool(value) and value.strip().lower() not in ("0", "false", "no", "off", "")


def _install_from_env() -> None:
    trace_path = os.environ.get("REPRO_TRACE", "").strip()
    profile_path = os.environ.get("REPRO_PROFILE", "").strip()
    want_stats = _env_truthy(os.environ.get("REPRO_STATS"))
    if not trace_path and not profile_path and not want_stats:
        return
    recorder = Recorder(trace=bool(trace_path or profile_path))
    install(recorder)

    import atexit

    def _flush() -> None:
        import sys

        from repro.observability.export import render_stats_table, write_trace

        if trace_path:
            write_trace(recorder, trace_path)
        if profile_path:
            from repro.profiling import emit_profile

            emit_profile(recorder, profile_path, quiet=True)
        if want_stats:
            print(render_stats_table(recorder), file=sys.stderr)

    atexit.register(_flush)


_install_from_env()
