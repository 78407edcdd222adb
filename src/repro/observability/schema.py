"""Trace-document reader and schema validator.

``write_trace`` emits one JSON document per recording session; this
module is its counterpart: :func:`validate_trace` checks a parsed
document against the schema (raising :class:`TraceSchemaError` with the
offending path), and :func:`load_trace` reads and validates one.
Validation is structural (types and required keys), not semantic: it
guards against silent schema drift, not against a compiler emitting
surprising span names.
"""

from __future__ import annotations

import json

from repro.observability.export import TRACE_SCHEMA_VERSION

#: Schema versions this reader understands: only the one written.
SUPPORTED_TRACE_VERSIONS = (TRACE_SCHEMA_VERSION,)

_SPAN_KEYS = {
    "name": str,
    "attrs": dict,
    "start_ns": int,
    "duration_ns": int,
    "counters": dict,
    "children": list,
}

_REMARK_KEYS = {
    "seq": int,
    "pass": str,
    "loop": str,
    "reason": str,
    "message": str,
    "phase": str,
    "data": dict,
}


class TraceSchemaError(ValueError):
    """A trace document does not conform to the schema.

    ``path`` locates the offending field (``spans[0].children[2].name``).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"trace schema violation at {path}: {message}")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise TraceSchemaError(path, message)


def _validate_record(
    record: object, keys: dict[str, type], path: str, what: str
) -> None:
    _require(isinstance(record, dict), path, f"{what} must be an object")
    assert isinstance(record, dict)
    for key, typ in keys.items():
        _require(key in record, f"{path}.{key}", "missing required key")
        _require(
            isinstance(record[key], typ),
            f"{path}.{key}",
            f"expected {typ.__name__}, got {type(record[key]).__name__}",
        )


def _validate_counters(counters: dict[str, object], path: str) -> None:
    for name, value in counters.items():
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"{path}[{name!r}]",
            "counter values must be integers",
        )


def _validate_span(span: object, path: str) -> None:
    _validate_record(span, _SPAN_KEYS, path, "span")
    assert isinstance(span, dict)
    _validate_counters(span["counters"], f"{path}.counters")
    for i, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{i}]")


def validate_trace(document: object) -> dict[str, object]:
    """Validate one parsed trace document; returns it on success."""
    _require(isinstance(document, dict), "$", "trace must be an object")
    assert isinstance(document, dict)
    version = document.get("schema_version")
    _require(
        version in SUPPORTED_TRACE_VERSIONS,
        "$.schema_version",
        f"unsupported version {version!r} "
        f"(supported: {SUPPORTED_TRACE_VERSIONS})",
    )
    for key, typ in (("spans", list), ("counters", dict), ("remarks", list)):
        _require(key in document, f"$.{key}", "missing required key")
        _require(
            isinstance(document[key], typ),
            f"$.{key}",
            "must be an array" if typ is list else "must be an object",
        )
    _validate_counters(document["counters"], "$.counters")
    for i, span in enumerate(document["spans"]):
        _validate_span(span, f"$.spans[{i}]")
    for i, remark in enumerate(document["remarks"]):
        _validate_record(remark, _REMARK_KEYS, f"$.remarks[{i}]", "remark")
    return document


def load_trace(source: str | dict[str, object]) -> dict[str, object]:
    """Read (a path to) a trace document and validate it."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as f:
            document = json.load(f)
    else:
        document = source
    return validate_trace(document)
