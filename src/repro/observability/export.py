"""The machine-readable trace sink.

``write_trace`` is what ``--trace-json`` writes — the full span forest
with attributes and per-span counters, the flat counters, and the
ordered remark log, as one JSON document (schema documented in
``docs/observability.md``).  The human-readable phase report is the
``--profile`` call tree (:mod:`repro.profiling`).
"""

from __future__ import annotations

import json
import os

from repro.observability.recorder import Recorder
from repro.observability.remarks import jsonify

TRACE_SCHEMA_VERSION = 4


def recorder_to_dict(recorder: Recorder) -> dict[str, object]:
    """The complete session as JSON-stable plain data."""
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "spans": [jsonify(root.to_dict()) for root in recorder.tracer.roots],
        "counters": dict(sorted(recorder.stats.counters.items())),
        "remarks": recorder.remarks.to_dict(),
    }


def write_trace(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(recorder_to_dict(recorder), f, indent=2, sort_keys=True)
        f.write("\n")


def output_path_error(*paths: str | None) -> str | None:
    """The one-line usage error for the first output path that cannot be
    written as a file (its directory is missing, or it is a directory),
    or ``None``.  Unset paths and ``-`` (stdout) are skipped.  The CLIs
    call this before any work, so a bad ``--trace-json`` or ``--profile``
    path costs no compile and loses no ledger record."""
    for path in paths:
        if path is None or path == "-":
            continue
        if os.path.isdir(path):
            return f"cannot write {path}: it is a directory"
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            return f"cannot write {path}: no directory {directory}"
    return None
