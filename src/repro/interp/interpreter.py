"""Functional interpreter for loop IR.

Executes a loop (original, unrolled, or vectorized) against a
:class:`~repro.interp.memory.MemoryImage`, iteration by iteration, in
normalized index space: each body execution is one value of the loop
index ``j`` and covers ``loop.increment`` original iterations.

The interpreter exists to *verify semantics*: every compilation strategy
must leave memory and loop-carried scalars in exactly the state the
untransformed loop produces.  Scheduling never changes program meaning,
so interpretation happens at the IR level, before scheduling.

:meth:`Interpreter.execute` is the one definition of what an operation
computes.  It reads operands through ``_operand`` and writes results
through ``_define``, the two hooks the cycle-level pipeline simulator
(:mod:`repro.simulate.pipeline_sim`) overrides.

Semantics notes:

* Vector values are tuples of ``VL`` scalars; scalar operands of vector
  operations broadcast.
* ``MERGE`` passes its first source through.  Functionally, the aligned
  load feeding a merge already fetched the exact (misaligned) elements —
  the merge models the realignment *cost*, which is the schedule's
  concern, not the interpreter's.
* Overhead operations (``BUMP``/``IVINC``/``CBR``) define zero and touch
  nothing.
* Carried scalars update *after* the body, all at once, from their exit
  operands — matching the "value entering the next iteration" semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.interp.memory import MemoryImage
from repro.ir.loop import Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import Constant, Operand, VirtualRegister


class InterpreterError(Exception):
    """Functional execution failed (bad operand, out-of-bounds access)."""


@dataclass
class LoopRunResult:
    """Final state after running a loop segment."""

    env: dict[VirtualRegister, object]
    carried: dict[str, object] = field(default_factory=dict)
    iterations: int = 0

    def value_of(self, reg: VirtualRegister, lane: int | None = None):
        value = self.env[reg]
        if lane is not None:
            return value[lane]
        return value


def _binary(kind: OpKind, dtype: ScalarType, a, b):
    if kind is OpKind.ADD:
        return a + b
    if kind is OpKind.SUB:
        return a - b
    if kind is OpKind.MUL:
        return a * b
    if kind is OpKind.DIV:
        if b == 0:
            raise InterpreterError("division by zero")
        if dtype.is_integer:
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    if kind is OpKind.MIN:
        return min(a, b)
    if kind is OpKind.MAX:
        return max(a, b)
    raise InterpreterError(f"unknown binary kind {kind}")


def _unary(kind: OpKind, dtype: ScalarType, a):
    if kind is OpKind.NEG:
        return -a
    if kind is OpKind.ABS:
        return abs(a)
    if kind is OpKind.SQRT:
        if a < 0:
            raise InterpreterError("square root of negative value")
        if dtype.is_integer:
            return math.isqrt(a)
        return math.sqrt(a)
    if kind is OpKind.COPY:
        return a
    if kind is OpKind.CVT:
        return int(a) if dtype.is_integer else float(a)
    raise InterpreterError(f"unknown unary kind {kind}")


class Interpreter:
    """Executes one loop over a memory image."""

    def __init__(
        self,
        loop: Loop,
        memory: MemoryImage,
        symbols: dict[str, int] | None = None,
        carried_init: dict[str, object] | None = None,
    ):
        self.loop = loop
        self.memory = memory
        self.symbols = {**loop.symbols, **(symbols or {})}
        self.env: dict[VirtualRegister, object] = {}
        memory.declare_all(loop)
        for c in loop.carried:
            if carried_init and c.entry.name in carried_init:
                self.env[c.entry] = carried_init[c.entry.name]
            else:
                self.env[c.entry] = self._broadcast_init(c.entry, c.init)

    def _broadcast_init(self, entry: VirtualRegister, init):
        if isinstance(entry.type, VectorType):
            return tuple([init] * entry.type.length)
        return init

    # ------------------------------------------------------------------

    def _operand(self, operand: Operand, j: int):
        """The value ``operand`` holds when read at index ``j``."""
        if isinstance(operand, Constant):
            return operand.value
        try:
            return self.env[operand]
        except KeyError as exc:
            raise InterpreterError(f"register {operand} undefined") from exc

    def _define(self, op: Operation, j: int, value) -> None:
        """Record ``value`` as ``op``'s result at index ``j``."""
        assert op.dest is not None
        self.env[op.dest] = value

    def _flat_index(self, op: Operation, j: int) -> int:
        assert op.subscript is not None and op.array is not None
        shape = self.memory.shapes[op.array]
        return op.subscript.evaluate(j, shape, self.symbols)

    def _vector_width(self, op: Operation) -> int:
        if op.dest is not None and isinstance(op.dest.type, VectorType):
            return op.dest.type.length
        for src in op.srcs:
            if isinstance(src.type, VectorType):
                return src.type.length
        return self.loop.increment

    def _as_lanes(self, value, width: int):
        if isinstance(value, tuple):
            if len(value) != width:
                raise InterpreterError("vector width mismatch")
            return value
        return tuple([value] * width)

    def execute(self, op: Operation, j: int) -> None:
        kind = op.kind
        if kind.is_overhead:
            if op.dest is not None:
                self._define(op, j, 0)
            return

        if kind is OpKind.LOAD:
            base = self._flat_index(op, j)
            if op.is_vector:
                width = self._vector_width(op)
                value = tuple(
                    self.memory.load(op.array, base + l) for l in range(width)
                )
            else:
                value = self.memory.load(op.array, base)
            self._define(op, j, value)
            return

        if kind is OpKind.STORE:
            base = self._flat_index(op, j)
            value = self._operand(op.stored_value, j)
            if op.is_vector:
                lanes = self._as_lanes(value, self._vector_width(op))
                for l, v in enumerate(lanes):
                    self.memory.store(op.array, base + l, v)
            else:
                if isinstance(value, tuple):
                    raise InterpreterError(f"scalar store of vector value: {op}")
                self.memory.store(op.array, base, value)
            return

        if kind is OpKind.MERGE:
            self._define(op, j, self._operand(op.srcs[0], j))
            return

        if kind is OpKind.PACK:
            self._define(op, j, tuple(self._operand(s, j) for s in op.srcs))
            return

        if kind is OpKind.EXTRACT:
            assert op.lane is not None
            value = self._operand(op.srcs[0], j)
            if not isinstance(value, tuple):
                raise InterpreterError(f"extract from non-vector value: {op}")
            self._define(op, j, value[op.lane])
            return

        # Arithmetic.
        values = [self._operand(s, j) for s in op.srcs]
        if op.is_vector:
            width = self._vector_width(op)
            lanes = [self._as_lanes(v, width) for v in values]
            if len(values) == 2:
                result = tuple(
                    _binary(kind, op.dtype, lanes[0][l], lanes[1][l])
                    for l in range(width)
                )
            else:
                result = tuple(
                    _unary(kind, op.dtype, lanes[0][l]) for l in range(width)
                )
        else:
            for v in values:
                if isinstance(v, tuple):
                    raise InterpreterError(f"scalar op with vector operand: {op}")
            if len(values) == 2:
                result = _binary(kind, op.dtype, values[0], values[1])
            else:
                result = _unary(kind, op.dtype, values[0])
        self._define(op, j, result)

    # ------------------------------------------------------------------

    def run(self, start_j: int, iterations: int) -> LoopRunResult:
        for op in self.loop.preheader:
            self.execute(op, start_j)
        for j in range(start_j, start_j + iterations):
            for op in self.loop.body:
                self.execute(op, j)
            updates = {
                c.entry: self._operand(c.exit, j) for c in self.loop.carried
            }
            self.env.update(updates)
        carried = {c.entry.name: self.env[c.entry] for c in self.loop.carried}
        return LoopRunResult(env=dict(self.env), carried=carried, iterations=iterations)


def run_loop(
    loop: Loop,
    memory: MemoryImage,
    start_j: int,
    iterations: int,
    symbols: dict[str, int] | None = None,
    carried_init: dict[str, object] | None = None,
) -> LoopRunResult:
    """Execute ``iterations`` body executions starting at index ``start_j``."""
    return Interpreter(loop, memory, symbols, carried_init).run(start_j, iterations)
