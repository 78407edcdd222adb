"""Wire protocol of the compile server.

A compile request is a JSON object naming everything
:class:`~repro.compiler.service.CompileRequest` needs:

.. code-block:: json

    {
      "loop": {"dsl": "array x(64) ..."},
      "machine": "paper",
      "strategy": "selective",
      "optimize": false,
      "baseline_unroll": null,
      "allow_reassociation": false
    }

The loop comes in one of two forms:

``{"dsl": <text>}``
    DSL source, parsed with the normal frontend.

``{"generator": {"archetype": <name>, "seed": <int>, "name": <str>}}``
    A deterministic workload-generator draw — the form the load
    generator uses, because it lets a corpus be replayed by plan
    rather than shipping loop text.

``machine`` is a name in the shared registry
(:data:`repro.machine.configs.MACHINE_FACTORIES`); ``strategy`` is a
:class:`~repro.compiler.strategies.Strategy` value.  Every validation
failure raises :class:`ProtocolError`, which the server renders as a
structured error body::

    {"error": {"code": "unknown_machine", "message": "..."}}

so clients can branch on ``code`` without parsing prose.
"""

from __future__ import annotations

from typing import Any

from repro.compiler.service import CompileRequest
from repro.compiler.strategies import Strategy
from repro.frontend import parse_loop
from repro.machine.configs import MACHINE_FACTORIES, machine_by_name
from repro.workloads.generator import GENERATORS, generate

#: Largest ``baseline_unroll`` a request may ask for.  Compile time grows
#: steeply with the factor (one ``copy_like`` draw under ``baseline``:
#: 0.02 s at 64, 0.71 s at 256, 13.3 s at 1024), and one request holds a
#: worker, and every request queued behind it, for as long as it runs.
MAX_BASELINE_UNROLL = 64

#: Longest DSL body a request may carry.  The event loop parses and
#: keys a body before any worker sees it, at about 0.12 ms a statement,
#: so a long body stalls every connection (86 ms at the cap on a 2-vCPU
#: Xeon VM).  The largest corpus loop (43 ops) is about 1.3 KB of DSL;
#: the cap leaves about 12 times that.
MAX_DSL_CHARS = 16 * 1024


class ProtocolError(Exception):
    """A request the protocol rejects, with a machine-readable code and
    the HTTP status the server should answer with."""

    def __init__(self, code: str, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status

    def body(self) -> dict:
        return {"error": {"code": self.code, "message": self.message}}


def _require(mapping: dict, field: str, code: str) -> Any:
    if field not in mapping:
        raise ProtocolError(code, f"missing required field {field!r}")
    return mapping[field]


def _parse_loop_form(form: object) -> "object":
    if not isinstance(form, dict):
        raise ProtocolError(
            "bad_loop", "loop must be an object with 'dsl' or 'generator'"
        )
    if ("dsl" in form) == ("generator" in form):
        raise ProtocolError(
            "bad_loop", "loop takes exactly one of 'dsl' or 'generator'"
        )
    if "dsl" in form:
        source = form["dsl"]
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError("bad_loop", "loop.dsl must be DSL text")
        if len(source) > MAX_DSL_CHARS:
            raise ProtocolError(
                "loop_too_large",
                f"loop.dsl is {len(source)} characters; the limit is "
                f"{MAX_DSL_CHARS}",
                status=413,
            )
        try:
            return parse_loop(source)
        except Exception as exc:
            raise ProtocolError("parse_error", str(exc)) from exc
    draw = form["generator"]
    if not isinstance(draw, dict):
        raise ProtocolError(
            "bad_loop",
            "loop.generator must be {archetype, seed[, name]}",
        )
    archetype = _require(draw, "archetype", "bad_loop")
    if not isinstance(archetype, str):
        raise ProtocolError(
            "bad_loop", "loop.generator.archetype must be a name"
        )
    if archetype not in GENERATORS:
        raise ProtocolError(
            "unknown_archetype",
            f"unknown archetype {archetype!r} "
            f"(expected one of {sorted(GENERATORS)})",
        )
    seed = _require(draw, "seed", "bad_loop")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("bad_loop", "loop.generator.seed must be an int")
    name = draw.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("bad_loop", "loop.generator.name must be a string")
    return generate(archetype, seed, name)


def parse_compile_request(body: object) -> CompileRequest:
    """Validate one JSON request body into a :class:`CompileRequest`.

    Raises :class:`ProtocolError` on any malformed or unknown field
    value; never partially succeeds.
    """
    if not isinstance(body, dict):
        raise ProtocolError("bad_request", "request body must be an object")
    loop = _parse_loop_form(_require(body, "loop", "bad_request"))

    machine_name = body.get("machine", "paper")
    if not isinstance(machine_name, str):
        raise ProtocolError("unknown_machine", "machine must be a name")
    try:
        machine = machine_by_name(machine_name)
    except KeyError:
        raise ProtocolError(
            "unknown_machine",
            f"unknown machine {machine_name!r} "
            f"(expected one of {sorted(MACHINE_FACTORIES)})",
        ) from None

    strategy_name = body.get("strategy", "selective")
    try:
        strategy = Strategy(strategy_name)
    except ValueError:
        raise ProtocolError(
            "unknown_strategy",
            f"unknown strategy {strategy_name!r} "
            f"(expected one of {sorted(s.value for s in Strategy)})",
        ) from None

    optimize = body.get("optimize", False)
    if not isinstance(optimize, bool):
        raise ProtocolError("bad_request", "optimize must be a boolean")
    allow_reassociation = body.get("allow_reassociation", False)
    if not isinstance(allow_reassociation, bool):
        raise ProtocolError(
            "bad_request", "allow_reassociation must be a boolean"
        )
    baseline_unroll = body.get("baseline_unroll")
    if baseline_unroll is not None and (
        not isinstance(baseline_unroll, int)
        or isinstance(baseline_unroll, bool)
        or not 1 <= baseline_unroll <= MAX_BASELINE_UNROLL
    ):
        raise ProtocolError(
            "bad_request",
            f"baseline_unroll must be an int from 1 to {MAX_BASELINE_UNROLL} "
            "or null",
        )

    return CompileRequest(
        loop=loop,
        machine=machine,
        strategy=strategy,
        baseline_unroll=baseline_unroll,
        optimize=optimize,
        allow_reassociation=allow_reassociation,
    )
