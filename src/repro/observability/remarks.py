"""Optimization remarks: the decision record of a compilation.

Where spans answer "where did the time go" and counters answer "how much
work was done", remarks answer "*why* did the compiler do that": a
register-allocation retry carries the II it bumped to and the files that
overflowed; a rejected II carries the placement budget that ran out.
Each remark records the span path that was open when it fired, so a
trace viewer can attach it to its phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def jsonify(value: object) -> object:
    """Coerce remark/attr payloads to JSON-stable types so an exported
    trace round-trips through ``json.dumps``/``loads`` unchanged."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonify(v) for v in items]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


@dataclass
class Remark:
    """One optimization remark — the ``-Rpass`` analogue.

    Each remark ties a *decision* (``pass_name`` + machine-readable
    ``reason`` code) to the loop it was made for and a human-readable
    one-line ``message``, with the structured evidence in ``data``.
    Reason codes are catalogued in ``docs/observability.md``.
    """

    seq: int
    pass_name: str
    loop: str
    reason: str
    message: str
    phase: str
    data: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "pass": self.pass_name,
            "loop": self.loop,
            "reason": self.reason,
            "message": self.message,
            "phase": self.phase,
            "data": jsonify(self.data),
        }


class RemarkLog:
    """The remarks of one recording session, in emission order."""

    def __init__(self) -> None:
        self.records: list[Remark] = []

    def add(
        self,
        pass_name: str,
        loop: str,
        reason: str,
        message: str,
        phase: str,
        data: dict[str, object],
    ) -> Remark:
        record = Remark(
            seq=len(self.records),
            pass_name=pass_name,
            loop=loop,
            reason=reason,
            message=message,
            phase=phase,
            data=data,
        )
        self.records.append(record)
        return record

    def select(
        self, loop: str | None = None, pass_name: str | None = None
    ) -> list[Remark]:
        return [
            r
            for r in self.records
            if (loop is None or r.loop == loop)
            and (pass_name is None or r.pass_name == pass_name)
        ]

    def reset(self) -> None:
        self.records.clear()

    def to_dict(self) -> list[dict[str, object]]:
        return [r.to_dict() for r in self.records]
