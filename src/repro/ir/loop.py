"""The loop container.

The unit of compilation throughout the system is a single innermost
counted loop (a Fortran ``do`` loop) without control flow — exactly the
loops to which the paper applies selective vectorization and modulo
scheduling.  The loop iterates ``i = 0 .. N-1`` with unit step; ``N`` is
supplied at interpretation/timing time.

Loop-carried scalars (reductions, recurrences) are modeled explicitly: a
:class:`CarriedScalar` names the register that holds the incoming value at
the top of each iteration, the operand whose end-of-iteration value is
carried to the next iteration, and the initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ir.operations import Operation
from repro.ir.types import ScalarType
from repro.ir.values import Operand, VirtualRegister


@dataclass(frozen=True)
class ArrayInfo:
    """A named array the loop reads or writes.

    ``dim_sizes`` are concrete extents used by the interpreter to flatten
    multi-dimensional subscripts (row-major).  ``alignment_offset`` is the
    array base's offset, in elements, from the nearest vector-aligned
    boundary; it participates in alignment analysis when the machine
    requires aligned vector memory operations.
    """

    name: str
    dtype: ScalarType
    dim_sizes: tuple[int, ...]
    alignment_offset: int = 0

    @property
    def size(self) -> int:
        total = 1
        for s in self.dim_sizes:
            total *= s
        return total


@dataclass(frozen=True)
class CarriedScalar:
    """A scalar value carried from one iteration to the next."""

    entry: VirtualRegister
    exit: Operand
    init: int | float


@dataclass(frozen=True)
class Loop:
    """An innermost counted loop: preheader + straight-line body."""

    name: str
    body: tuple[Operation, ...]
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    carried: tuple[CarriedScalar, ...] = ()
    live_out: tuple[VirtualRegister, ...] = ()
    preheader: tuple[Operation, ...] = ()
    increment: int = 1
    # Default bindings for symbolic subscript terms (outer-loop indices,
    # runtime parameters).  Dependence analysis still treats symbols as
    # unknown — these are interpreter/simulator defaults only.
    symbols: dict[str, int] = field(default_factory=dict)
    # Expected dynamic trip count, when known (workload profiles, CLI
    # --trip).  Purely informational — compilation never depends on it —
    # but it makes printed dumps self-contained.
    trip_count: int | None = None

    def defined_registers(self) -> set[VirtualRegister]:
        defs = {op.dest for op in self.body if op.dest is not None}
        defs.update(op.dest for op in self.preheader if op.dest is not None)
        return defs

    def definition_of(self, reg: VirtualRegister) -> Operation | None:
        for op in self.body:
            if op.dest == reg:
                return op
        return None

    def carried_entries(self) -> set[VirtualRegister]:
        return {c.entry for c in self.carried}

    def carried_for_entry(self, reg: VirtualRegister) -> CarriedScalar | None:
        for c in self.carried:
            if c.entry == reg:
                return c
        return None

    def op_by_uid(self, uid: int) -> Operation:
        for op in self.body:
            if op.uid == uid:
                return op
        raise KeyError(f"no operation with uid {uid} in loop {self.name!r}")

    def with_body(self, body: tuple[Operation, ...]) -> Loop:
        return replace(self, body=body)

    @property
    def memory_ops(self) -> tuple[Operation, ...]:
        return tuple(op for op in self.body if op.kind.is_memory)

    def __str__(self) -> str:
        from repro.ir.printer import format_loop

        return format_loop(self)
