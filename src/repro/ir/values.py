"""Values that flow between IR operations.

Operands are either virtual registers (produced by operations, loop
induction variables, or loop-carried scalars) or compile-time constants.
Virtual registers are identified by name; the IR is register-based rather
than strictly SSA, but the builder enforces single assignment within a
loop body, which is all the backend passes require.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.types import IRType, ScalarType, VectorType, is_vector_type


@dataclass(frozen=True)
class VirtualRegister:
    """A named virtual register of a given type."""

    name: str
    type: IRType

    @property
    def is_vector(self) -> bool:
        return is_vector_type(self.type)

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Constant:
    """A compile-time scalar constant."""

    value: int | float
    type: ScalarType

    def __post_init__(self) -> None:
        if self.type is ScalarType.I64 and not isinstance(self.value, int):
            raise TypeError(f"i64 constant must be int, got {self.value!r}")

    def __str__(self) -> str:
        return repr(self.value)


Operand = VirtualRegister | Constant


def const_i64(value: int) -> Constant:
    return Constant(value, ScalarType.I64)


def const_f64(value: float) -> Constant:
    return Constant(float(value), ScalarType.F64)


def lane_register(reg: VirtualRegister, lane: int) -> VirtualRegister:
    """The scalar register standing for ``lane`` of a replicated value.

    Loop transformation replicates scalar operations ``VL`` times; each
    replica defines a lane-suffixed register derived from the original.
    """
    ty = reg.type
    if isinstance(ty, VectorType):
        ty = ty.element
    return VirtualRegister(f"{reg.name}.l{lane}", ty)


def vector_register(reg: VirtualRegister, length: int) -> VirtualRegister:
    """The vector register standing for the vectorized form of ``reg``."""
    if isinstance(reg.type, VectorType):
        return reg
    return VirtualRegister(f"{reg.name}.v", VectorType(reg.type, length))
