"""IR operations.

A loop body is a straight-line sequence of operations.  Each operation has
an opcode kind, an element data type, at most one destination register and
a tuple of source operands.  Memory operations additionally name an array
and carry an affine :class:`~repro.ir.subscripts.Subscript`.

Three *overhead* kinds — ``BUMP`` (address-pointer increment), ``IVINC``
(induction-variable increment) and ``CBR`` (loop-back compare-and-branch) —
are materialized during lowering.  They have no dataflow semantics visible
to the interpreter but consume real machine resources, which is how the
paper's loop-control and addressing costs enter the schedule.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.ir.subscripts import Subscript
from repro.ir.types import ScalarType
from repro.ir.values import Operand, VirtualRegister


class OpKind(enum.Enum):
    # Arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    SQRT = "sqrt"
    COPY = "copy"
    CVT = "cvt"  # int <-> float conversion
    # Memory
    LOAD = "load"
    STORE = "store"
    # Vector-register data movement (misalignment support)
    MERGE = "merge"
    # Direct scalar<->vector register moves — only emitted on machines
    # with a free communication model (the Figure 1 example)
    PACK = "pack"
    EXTRACT = "extract"
    # Loop overhead (materialized during lowering)
    BUMP = "bump"
    IVINC = "ivinc"
    CBR = "cbr"

    __hash__ = object.__hash__  # identity hash, as ScalarType's

    # Read on every operation built and most compile decisions, so each
    # member computes each predicate once.

    @cached_property
    def is_memory(self) -> bool:
        return self in (OpKind.LOAD, OpKind.STORE)

    @cached_property
    def is_arith(self) -> bool:
        return self in _ARITH_KINDS

    @cached_property
    def is_overhead(self) -> bool:
        return self in (OpKind.BUMP, OpKind.IVINC, OpKind.CBR)

    @cached_property
    def arity(self) -> int:
        return _ARITY[self]

    @cached_property
    def has_dest(self) -> bool:
        return self not in (OpKind.STORE, OpKind.CBR)

    @cached_property
    def is_commutative(self) -> bool:
        return self in (OpKind.ADD, OpKind.MUL, OpKind.MIN, OpKind.MAX)


_ARITH_KINDS = frozenset(
    {
        OpKind.ADD,
        OpKind.SUB,
        OpKind.MUL,
        OpKind.DIV,
        OpKind.NEG,
        OpKind.ABS,
        OpKind.MIN,
        OpKind.MAX,
        OpKind.SQRT,
        OpKind.COPY,
        OpKind.CVT,
    }
)

_ARITY: dict[OpKind, int] = {
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MUL: 2,
    OpKind.DIV: 2,
    OpKind.NEG: 1,
    OpKind.ABS: 1,
    OpKind.MIN: 2,
    OpKind.MAX: 2,
    OpKind.SQRT: 1,
    OpKind.COPY: 1,
    OpKind.CVT: 1,
    OpKind.LOAD: 0,
    OpKind.STORE: 1,
    OpKind.MERGE: 2,
    OpKind.PACK: -1,  # variable: one source per lane
    OpKind.EXTRACT: 1,
    OpKind.BUMP: 0,
    OpKind.IVINC: 0,
    OpKind.CBR: 0,
}

_op_ids = itertools.count()


def _next_op_id() -> int:
    return next(_op_ids)


@dataclass(frozen=True, init=False)
class Operation:
    """A single IR operation.

    ``uid`` uniquely identifies the operation across the whole process so
    that dependence graphs and schedules can key on operations directly.
    ``origin``/``lane`` record provenance through loop transformation: the
    ``uid`` of the source-loop operation an emitted operation implements,
    and which lane of it (for replicated scalars).
    """

    kind: OpKind
    dtype: ScalarType
    dest: VirtualRegister | None = None
    srcs: tuple[Operand, ...] = ()
    array: str | None = None
    subscript: Subscript | None = None
    is_vector: bool = False
    uid: int = field(default_factory=_next_op_id)
    origin: int | None = None
    lane: int | None = None

    # Written by hand: every pass builds operations, and the generated
    # frozen init looks ``object.__setattr__`` up again for each field and
    # then calls ``__post_init__``.  The fields are bound in declaration
    # order, so every instance dict shares its keys.
    def __init__(
        self,
        kind: OpKind,
        dtype: ScalarType,
        dest: VirtualRegister | None = None,
        srcs: tuple[Operand, ...] = (),
        array: str | None = None,
        subscript: Subscript | None = None,
        is_vector: bool = False,
        uid: int | None = None,
        origin: int | None = None,
        lane: int | None = None,
    ) -> None:
        arity = kind.arity
        if arity >= 0 and len(srcs) != arity:
            raise ValueError(
                f"{kind.value} expects {arity} sources, got {len(srcs)}"
            )
        if arity < 0 and not srcs:
            raise ValueError(f"{kind.value} expects at least one source")
        if kind.is_memory:
            if array is None or subscript is None:
                raise ValueError(f"{kind.value} requires array and subscript")
        elif array is not None:
            raise ValueError(f"{kind.value} must not name an array")
        if kind.has_dest:
            if dest is None:
                raise ValueError(f"{kind.value} requires a destination")
        elif dest is not None:
            raise ValueError(f"{kind.value} cannot have a destination")
        bind = object.__setattr__
        bind(self, "kind", kind)
        bind(self, "dtype", dtype)
        bind(self, "dest", dest)
        bind(self, "srcs", srcs)
        bind(self, "array", array)
        bind(self, "subscript", subscript)
        bind(self, "is_vector", is_vector)
        bind(self, "uid", next(_op_ids) if uid is None else uid)
        bind(self, "origin", origin)
        bind(self, "lane", lane)

    @property
    def is_load(self) -> bool:
        return self.kind is OpKind.LOAD

    @property
    def is_store(self) -> bool:
        return self.kind is OpKind.STORE

    @property
    def stored_value(self) -> Operand:
        if not self.is_store:
            raise ValueError("stored_value on non-store")
        return self.srcs[0]

    def registers_read(self) -> tuple[VirtualRegister, ...]:
        return tuple(s for s in self.srcs if isinstance(s, VirtualRegister))

    def with_srcs(self, srcs: tuple[Operand, ...]) -> Operation:
        return replace(self, srcs=srcs, uid=_next_op_id())

    def mnemonic(self) -> str:
        name = self.kind.value
        if self.is_vector:
            name = "v" + name
        return name

    def __str__(self) -> str:
        parts = [self.mnemonic(), str(self.dtype)]
        text = f"{parts[0]}.{parts[1]}"
        if self.dest is not None:
            text = f"{self.dest} = {text}"
        if self.kind.is_memory:
            text += f" {self.array}{self.subscript}"
        if self.srcs:
            text += " " + ", ".join(str(s) for s in self.srcs)
        return text

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operation) and other.uid == self.uid
