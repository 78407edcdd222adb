"""Structural and type invariants for loop IR.

Passes may assume any loop they receive has passed :func:`verify_loop`;
every transformation re-verifies its output in tests.
"""

from __future__ import annotations

from repro.ir.loop import Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.ir.values import VirtualRegister


class VerificationError(Exception):
    """The loop violates an IR invariant."""


def verify_loop(loop: Loop) -> None:
    defined: set[VirtualRegister] = set()
    defined_names: dict[str, VirtualRegister] = {}
    entries = loop.carried_entries()
    available: set[VirtualRegister] = set(entries)

    for op in loop.preheader:
        _verify_op(loop, op, entries, available, defined, defined_names)
    for op in loop.body:
        _verify_op(loop, op, entries, available, defined, defined_names)

    for c in loop.carried:
        if isinstance(c.exit, VirtualRegister):
            if c.exit not in available:
                raise VerificationError(
                    f"carried exit {c.exit} of {c.entry} is never defined"
                )
            if c.exit.type != c.entry.type:
                raise VerificationError(
                    f"carried scalar {c.entry} type mismatch with exit {c.exit}"
                )

    for reg in loop.live_out:
        if reg not in available:
            raise VerificationError(f"live-out register {reg} is never defined")
        for c in loop.carried:
            if (
                isinstance(c.exit, VirtualRegister)
                and c.exit.name == reg.name
                and c.exit.type != reg.type
            ):
                raise VerificationError(
                    f"live-out register {reg} is also the carried exit of "
                    f"{c.entry} with mismatched type {c.exit.type}"
                )

    if loop.increment < 1:
        raise VerificationError(f"loop increment must be >= 1, got {loop.increment}")


def _verify_op(
    loop: Loop,
    op: Operation,
    entries: set[VirtualRegister],
    available: set[VirtualRegister],
    defined: set[VirtualRegister],
    defined_names: dict[str, VirtualRegister],
) -> None:
    for src in op.registers_read():
        if src not in available:
            raise VerificationError(f"operation {op} reads undefined register {src}")

    if op.kind.is_memory:
        info = loop.arrays.get(op.array or "")
        if info is None:
            raise VerificationError(f"operation {op} references undeclared array")
        if op.subscript is None or op.subscript.rank != len(info.dim_sizes):
            raise VerificationError(
                f"operation {op} subscript rank does not match array {info.name!r}"
            )
        elem = info.dtype
        if op.dtype != elem:
            raise VerificationError(
                f"operation {op} dtype {op.dtype} does not match array "
                f"element type {elem}"
            )
        if op.is_store:
            value = op.stored_value
            stored_elem = (
                value.type.element
                if not isinstance(value.type, ScalarType)
                else value.type
            )
            if stored_elem != elem:
                raise VerificationError(
                    f"store {op} value type {value.type} does not match "
                    f"array element type {elem}"
                )

    if op.kind.is_arith and op.kind is not OpKind.CVT:
        for src in op.srcs:
            src_elem = (
                src.type.element
                if not isinstance(src.type, ScalarType)
                else src.type
            )
            if src_elem != op.dtype:
                raise VerificationError(
                    f"operation {op} operand {src} type does not match {op.dtype}"
                )

    if op.dest is not None:
        if op.dest in defined:
            raise VerificationError(f"register {op.dest} assigned more than once")
        previous = defined_names.get(op.dest.name)
        if previous is not None:
            # Same SSA name under a different type is still a duplicate
            # definition (set membership alone would miss it).
            raise VerificationError(
                f"register name {op.dest.name!r} defined more than once "
                f"(as {previous.type} and {op.dest.type})"
            )
        if op.dest in entries:
            raise VerificationError(
                f"register {op.dest} is a carried-scalar entry and cannot be "
                "a destination"
            )
        dest_elem = (
            op.dest.type.element
            if not isinstance(op.dest.type, ScalarType)
            else op.dest.type
        )
        if dest_elem != op.dtype:
            raise VerificationError(
                f"operation {op} destination type does not match opcode dtype"
            )
        defined.add(op.dest)
        defined_names[op.dest.name] = op.dest
        available.add(op.dest)
