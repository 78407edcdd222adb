"""Scalar and vector types for the loop IR.

The machine modeled in the paper operates on 64-bit integer and floating
point data, with 128-bit vector registers holding two 64-bit elements.
We keep the type system small but explicit so that opcode selection,
register-file accounting, and the interpreter can all dispatch on it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class ScalarType(enum.Enum):
    """Element types supported by the IR."""

    I64 = "i64"
    F64 = "f64"
    PRED = "pred"

    # Members are singletons compared by identity, so an identity hash is
    # consistent with equality; it replaces Enum's Python-level
    # ``hash(self._name_)``, which every opcode-memo key and register
    # hash would otherwise call.
    __hash__ = object.__hash__

    @property
    def is_integer(self) -> bool:
        return self is ScalarType.I64

    @property
    def is_float(self) -> bool:
        return self is ScalarType.F64

    @property
    def bits(self) -> int:
        return 1 if self is ScalarType.PRED else 64

    def __str__(self) -> str:
        return self.value


class _VectorTypeFields(NamedTuple):
    element: ScalarType
    length: int


class VectorType(_VectorTypeFields):
    """A short vector of ``length`` elements of type ``element``.

    A tuple of its fields, as every IR value record that the compile path
    hashes: hashing and equality run in C, and give the values a frozen
    dataclass gives (the hash of the field tuple).
    """

    __slots__ = ()

    def __new__(cls, element: ScalarType, length: int) -> VectorType:
        if length < 2:
            raise ValueError(f"vector length must be >= 2, got {length}")
        return super().__new__(cls, element, length)

    @property
    def bits(self) -> int:
        return self.element.bits * self.length

    def __str__(self) -> str:
        return f"<{self.length} x {self.element}>"


IRType = ScalarType | VectorType


def is_vector_type(ty: IRType) -> bool:
    return isinstance(ty, VectorType)


def element_type(ty: IRType) -> ScalarType:
    """The scalar element type of ``ty`` (identity for scalars)."""
    return ty.element if isinstance(ty, VectorType) else ty
