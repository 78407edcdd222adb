"""Whole-iteration assignment (paper Section 6, future work).

Instead of splitting each iteration's operations between scalar and
vector resources, assign *whole iterations*: unroll by ``VL + k`` and run
iterations ``0..VL-1`` of each group on the vector units while iterations
``VL..VL+k-1`` execute in scalar form alongside.  In the absence of
loop-carried dependences this requires no scalar<->vector communication
at all.  The drawback the paper predicts: because the unroll factor is
not a multiple of the vector length, vector memory references can never
be aligned, so every one pays the realignment merge.

The scheme applies only to loops where every operation is vectorizable
and there are no carried scalars; :func:`whole_iteration_transform`
returns ``None`` otherwise.

The emitter overrides only ``emit_op``;
:func:`~repro.vectorize.transform.assemble` builds the loop.
"""

from __future__ import annotations

from repro.dependence.analysis import LoopDependence
from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription
from repro.vectorize.communication import Side
from repro.vectorize.transform import TransformResult, _Emitter, assemble


class _WholeIterationEmitter(_Emitter):
    """Every operation is emitted once as a VL-wide vector op (lanes
    ``0..VL-1``) and once per extra scalar iteration (lanes ``VL..``)."""

    def emit_op(self, op: Operation) -> None:
        self.emit_vector(op)
        for lane in range(self.vector_width, self.factor):
            self.emit_scalar(op, lane)


def applicable(dep: LoopDependence) -> bool:
    """True when the loop qualifies for whole-iteration assignment."""
    if dep.loop.carried:
        return False
    return all(dep.is_vectorizable(op) for op in dep.loop.body)


def whole_iteration_transform(
    dep: LoopDependence,
    machine: MachineDescription,
    extra_scalar_iterations: int = 1,
) -> TransformResult | None:
    """Transform a fully parallel loop by whole-iteration assignment.

    Returns ``None`` when the loop does not qualify (carried scalars or
    any non-vectorizable operation)."""
    if extra_scalar_iterations < 1:
        raise ValueError("extra_scalar_iterations must be >= 1")
    if not applicable(dep):
        return None

    vl = machine.vector_length
    emitter = _WholeIterationEmitter(
        dep,
        machine,
        {op.uid: Side.VECTOR for op in dep.loop.body},
        vl + extra_scalar_iterations,
        suffix=".wia",
        vector_width=vl,
        # The unroll factor is never a multiple of VL, so vector memory
        # references cannot be aligned regardless of alignment knowledge.
        force_misaligned=True,
    )
    return assemble(emitter)
