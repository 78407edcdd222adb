"""Reduction vectorization (paper Section 6, future work).

The paper treats reductions as non-vectorizable because vectorizing
``s = s + x[i]`` reorders the additions — illegal for floating point
without permission.  Section 6 names *reduction recognition* as the loop
transformation the work would most benefit from: with reassociation
allowed, the reduction runs as ``VL`` independent partial accumulations
(a vector accumulator carried across iterations) that are combined once
when the loop completes.

This module implements that extension:

* :func:`reassociable_reductions` recognizes the pattern — a carried
  scalar whose dependence cycle is exactly one commutative operation
  (add / mul / min / max) reading the carried entry once;
* :func:`vectorize_reduction_loop` emits the transformed loop: the
  reduction becomes a vector operation on a carried vector accumulator
  initialized with the operation's identity element, everything else
  vectorizes as usual, and the live-out carries a *combine* tag telling
  the runtime to fold the accumulator lanes (and the original initial
  value) after the loop drains;
* the cleanup loop stays scalar and seeds from the combined value.

The emitter overrides ``emit_op``, ``liveout`` and ``finalize_carried``;
:func:`~repro.vectorize.transform.assemble` builds the loop.

Because lanes accumulate independently, results can differ from the
sequential loop by floating-point reassociation — exactly the legality
caveat the paper raises.  The tests therefore compare against a
reassociated reference, and exactly for min/max/integer reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.analysis import LoopDependence
from repro.ir.loop import CarriedScalar
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import Constant, Operand, VirtualRegister
from repro.machine.machine import MachineDescription
from repro.vectorize.communication import Side
from repro.vectorize.transform import (
    LiveOut,
    TransformResult,
    _Emitter,
    assemble,
)

_IDENTITY = {
    OpKind.ADD: 0,
    OpKind.MUL: 1,
    OpKind.MIN: float("inf"),
    OpKind.MAX: float("-inf"),
}


@dataclass(frozen=True)
class RecognizedReduction:
    """One reassociable reduction: the carried scalar and its operation."""

    carried: CarriedScalar
    op: Operation

    @property
    def kind(self) -> OpKind:
        return self.op.kind

    def identity(self) -> int | float:
        value = _IDENTITY[self.kind]
        if self.op.dtype.is_integer:
            if self.kind is OpKind.MIN:
                return 2**62
            if self.kind is OpKind.MAX:
                return -(2**62)
            return int(value)
        return float(value)


def reassociable_reductions(
    dep: LoopDependence,
) -> dict[VirtualRegister, RecognizedReduction]:
    """Carried scalars matching the reduction pattern, keyed by entry."""
    loop = dep.loop
    found: dict[VirtualRegister, RecognizedReduction] = {}
    for c in loop.carried:
        if not isinstance(c.exit, VirtualRegister) or c.exit == c.entry:
            continue
        op = loop.definition_of(c.exit)
        if op is None or op.kind not in _IDENTITY:
            continue
        if not isinstance(op.dtype, ScalarType):
            continue
        # the entry must feed exactly this op, exactly once
        readers = [
            body_op
            for body_op in loop.body
            for src in body_op.registers_read()
            if src == c.entry
        ]
        if readers != [op]:
            continue
        # the cycle must be exactly {op}: its other operand must not
        # depend on the accumulator
        members = dep.sccs[dep.scc_of[op.uid]]
        if len(members) != 1:
            continue
        # the accumulated value must not feed anything else in the body
        # (otherwise intermediate partial sums would be observed)
        consumers = [
            body_op
            for body_op in loop.body
            for src in body_op.registers_read()
            if src == c.exit
        ]
        if consumers:
            continue
        found[c.entry] = RecognizedReduction(c, op)
    return found


class _ReductionEmitter(_Emitter):
    """Standard vector emission, except recognized reductions become
    vector accumulations on carried vector registers."""

    def __init__(self, *args, reductions, **kwargs):
        super().__init__(*args, **kwargs)
        self.reductions: dict[VirtualRegister, RecognizedReduction] = reductions

    def emit_op(self, op: Operation) -> None:
        reduction = next(
            (r for r in self.reductions.values() if r.op.uid == op.uid), None
        )
        if reduction is not None:
            self._emit_reduction(reduction)
        else:
            super().emit_op(op)

    def _emit_reduction(self, reduction: RecognizedReduction) -> None:
        op = reduction.op
        entry = reduction.carried.entry
        vtype = VectorType(op.dtype, self.vector_width)
        prev = VirtualRegister(f"{entry.name}.acc", vtype)
        data = next(s for s in op.srcs if s != entry)
        data_vec = self.vector_operand(data)
        assert op.dest is not None
        dest = VirtualRegister(f"{op.dest.name}.accv", vtype)
        self.body.append(
            Operation(
                op.kind,
                op.dtype,
                dest=dest,
                srcs=(prev, data_vec),
                is_vector=True,
                origin=op.uid,
            )
        )
        self.carried.append(CarriedScalar(prev, dest, reduction.identity()))
        self.vector_defs[op.uid] = dest
        self.n_vector_ops += 1

    def finalize_carried(self) -> None:
        for c in self.loop.carried:
            if c.entry in self.reductions:
                continue  # replaced by the vector accumulator
            if isinstance(c.exit, Constant) or c.exit == c.entry:
                exit_value: Operand = c.exit
            else:
                exit_value = self.scalar_operand(c.exit, self.factor - 1)
            self.carried.append(CarriedScalar(c.entry, exit_value, c.init))

    def liveout(self, reg: VirtualRegister) -> LiveOut:
        for reduction in self.reductions.values():
            if reg == reduction.op.dest or reg == reduction.carried.entry:
                return LiveOut(
                    self.vector_defs[reduction.op.uid],
                    combine=reduction.kind,
                    combine_entry=reduction.carried.entry.name,
                )
        return super().liveout(reg)


def vectorize_reduction_loop(
    dep: LoopDependence,
    machine: MachineDescription,
) -> TransformResult | None:
    """Vectorize a loop whose only serialization is reassociable
    reductions.  Returns ``None`` when the loop does not qualify (no
    recognizable reduction, or other non-vectorizable operations)."""
    loop = dep.loop
    reductions = reassociable_reductions(dep)
    if not reductions:
        return None
    reduction_uids = {r.op.uid for r in reductions.values()}
    for op in loop.body:
        if op.uid in reduction_uids:
            continue
        if not dep.is_vectorizable(op):
            return None
    # carried scalars other than the reductions would still serialize
    for c in loop.carried:
        if c.entry not in reductions and c.exit != c.entry:
            return None

    # The reductions join the vector side too, so every component takes
    # the topological path, where emit_op turns them into accumulations.
    emitter = _ReductionEmitter(
        dep,
        machine,
        {op.uid: Side.VECTOR for op in loop.body},
        machine.vector_length,
        suffix=".red",
        reductions=reductions,
    )
    combines = {
        entry.name: (r.kind, f"{entry.name}.acc")
        for entry, r in reductions.items()
    }
    return assemble(emitter, reduction_combines=combines)


def combine_lanes(kind: OpKind, lanes, init):
    """Fold a vector accumulator's lanes together with the loop's initial
    value — the epilogue combine."""
    value = init
    for lane in lanes:
        if kind is OpKind.ADD:
            value = value + lane
        elif kind is OpKind.MUL:
            value = value * lane
        elif kind is OpKind.MIN:
            value = min(value, lane)
        elif kind is OpKind.MAX:
            value = max(value, lane)
        else:
            raise ValueError(f"not a reduction kind: {kind}")
    return value
