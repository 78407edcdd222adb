"""Compiler-pipeline observability: spans, counters, remarks.

Modeled on LLVM's ``-time-passes`` / ``-stats`` / optimization-remarks
trio.  One :class:`Recorder` holds a session; installing it (explicitly,
via the CLI ``--profile`` / ``--trace-json`` flags, or via the
``REPRO_PROFILE`` / ``REPRO_TRACE`` environment variables) turns on the
instrumentation wired through the compilation pipeline.  With no
recorder installed every instrumentation site is a single ``None`` check.

Typical library use::

    from repro.observability import recording
    from repro.profiling import Profile, render_tree

    with recording() as rec:
        compile_loop(loop, machine, Strategy.SELECTIVE)
    print(render_tree(Profile.from_recorder(rec), counters=True))
"""

from repro.observability.export import (
    TRACE_SCHEMA_VERSION,
    output_path_error,
    recorder_to_dict,
    write_trace,
)
from repro.observability.recorder import (
    Recorder,
    active_recorder,
    install,
    maybe_span,
    recording,
)
from repro.observability.remarks import Remark, RemarkLog
from repro.observability.schema import (
    SUPPORTED_TRACE_VERSIONS,
    TraceSchemaError,
    load_trace,
    validate_trace,
)
from repro.observability.stats import StatRegistry
from repro.observability.trace import Span, SpanTracer

__all__ = [
    "Recorder",
    "Remark",
    "RemarkLog",
    "SUPPORTED_TRACE_VERSIONS",
    "Span",
    "SpanTracer",
    "StatRegistry",
    "TRACE_SCHEMA_VERSION",
    "TraceSchemaError",
    "active_recorder",
    "install",
    "load_trace",
    "maybe_span",
    "output_path_error",
    "recorder_to_dict",
    "recording",
    "validate_trace",
    "write_trace",
]
