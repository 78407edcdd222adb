"""Trace-document reader and schema validator.

``write_trace`` emits one JSON document per recording session; this
module is its counterpart: :func:`validate_trace` checks a parsed
document against the schema (raising :class:`TraceSchemaError` with the
offending path), and :func:`load_trace` reads + validates + *normalizes*
a document so a consumer of a written trace can rely on every field
being present regardless of which schema version wrote it:

* version 1 documents lack the ``remarks`` array (added in v2);
* version 2 documents lack per-span ``counters`` (added in v3).

Both are filled in with empty defaults on load, so a loaded trace always
has the version-3 shape.  Validation is structural (types and required
keys), not semantic: it guards against silent schema drift, not against
a compiler emitting surprising span names.
"""

from __future__ import annotations

import json

#: Schema versions this reader understands.
SUPPORTED_TRACE_VERSIONS = (1, 2, 3)

_SPAN_KEYS = {
    "name": str,
    "attrs": dict,
    "start_ns": int,
    "duration_ns": int,
    "children": list,
}

_EVENT_KEYS = {"seq": int, "name": str, "phase": str, "data": dict}

_REMARK_KEYS = {
    "seq": int,
    "pass": str,
    "loop": str,
    "reason": str,
    "message": str,
    "phase": str,
    "data": dict,
}

_DISTRIBUTION_KEYS = {"n", "total", "mean", "min", "max"}


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


def _validate_span(span: object, path: str) -> None:
    _require(isinstance(span, dict), path, "span must be an object")
    assert isinstance(span, dict)
    for key, typ in _SPAN_KEYS.items():
        _require(key in span, f"{path}.{key}", "missing required key")
        _require(
            isinstance(span[key], typ),
            f"{path}.{key}",
            f"expected {typ.__name__}, got {type(span[key]).__name__}",
        )
    counters = span.get("counters", {})
    _require(
        isinstance(counters, dict), f"{path}.counters", "must be an object"
    )
    for name, value in counters.items():
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"{path}.counters[{name!r}]",
            "counter values must be integers",
        )
    for i, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{i}]")


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
    for key in ("spans", "events"):
        _require(key in document, f"$.{key}", "missing required key")
        _require(
            isinstance(document[key], list), f"$.{key}", "must be an array"
        )
    _require("counters" in document, "$.counters", "missing required key")
    _require(
        isinstance(document["counters"], dict),
        "$.counters",
        "must be an object",
    )
    for name, value in document["counters"].items():
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"$.counters[{name!r}]",
            "counter values must be integers",
        )
    distributions = document.get("distributions", {})
    _require(
        isinstance(distributions, dict),
        "$.distributions",
        "must be an object",
    )
    for name, dist in distributions.items():
        _require(
            isinstance(dist, dict)
            and _DISTRIBUTION_KEYS <= set(dist.keys()),
            f"$.distributions[{name!r}]",
            f"must be an object with keys {sorted(_DISTRIBUTION_KEYS)}",
        )
    for i, span in enumerate(document["spans"]):
        _validate_span(span, f"$.spans[{i}]")
    for i, event in enumerate(document["events"]):
        _validate_record(event, _EVENT_KEYS, f"$.events[{i}]", "event")
    if version >= 2:
        _require("remarks" in document, "$.remarks", "missing required key")
    remarks = document.get("remarks", [])
    _require(isinstance(remarks, list), "$.remarks", "must be an array")
    for i, remark in enumerate(remarks):
        _validate_record(remark, _REMARK_KEYS, f"$.remarks[{i}]", "remark")
    return document


def _normalize_span(span: dict[str, object]) -> None:
    span.setdefault("counters", {})
    for child in span["children"]:  # type: ignore[union-attr]
        _normalize_span(child)


def load_trace(source: str | dict[str, object]) -> dict[str, object]:
    """Read (a path to) a trace document, validate it, and normalize it
    to the current schema shape: ``remarks`` (v1) and per-span
    ``counters`` (v1/v2) are filled with empty defaults."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as f:
            document = json.load(f)
    else:
        document = source
    validate_trace(document)
    document.setdefault("remarks", [])
    document.setdefault("distributions", {})
    for span in document["spans"]:
        _normalize_span(span)
    return document
