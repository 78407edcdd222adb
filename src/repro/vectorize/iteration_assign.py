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
"""

from __future__ import annotations

from repro.dependence.analysis import LoopDependence
from repro.machine.machine import MachineDescription
from repro.vectorize.communication import Side
from repro.vectorize.transform import (
    DEFAULT_SCRATCH_ELEMS,
    TransformResult,
    _Emitter,
    _topo_by_intra_edges,
)


class _WholeIterationEmitter(_Emitter):
    """Every operation is emitted once as a VL-wide vector op (lanes
    ``0..VL-1``) and once per extra scalar iteration (lanes ``VL..``)."""

    def emit_component(self, members: list[int]) -> None:
        for uid in _topo_by_intra_edges(self.dep, members, self.body_index):
            op = self.op_of[uid]
            self.emit_vector(op)
            for lane in range(self.vector_width, self.factor):
                self.emit_scalar(op, lane)

    def liveout_map(self):
        from repro.vectorize.transform import LiveOut

        mapping = {}
        for reg in self.loop.live_out:
            producer = self.def_op.get(reg)
            if producer is not None:
                # The last iteration of each group runs in scalar form.
                mapping[reg.name] = LiveOut(
                    self.lane_defs[(producer.uid, self.factor - 1)]
                )
            else:
                mapping[reg.name] = LiveOut(reg)
        return mapping


def applicable(dep: LoopDependence) -> bool:
    """True when the loop qualifies for whole-iteration assignment."""
    if dep.loop.carried:
        return False
    return all(dep.is_vectorizable(op) for op in dep.loop.body)


def whole_iteration_transform(
    dep: LoopDependence,
    machine: MachineDescription,
    extra_scalar_iterations: int = 1,
    scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
) -> TransformResult | None:
    """Transform a fully parallel loop by whole-iteration assignment.

    Returns ``None`` when the loop does not qualify (carried scalars or
    any non-vectorizable operation)."""
    if extra_scalar_iterations < 1:
        raise ValueError("extra_scalar_iterations must be >= 1")
    if not applicable(dep):
        return None

    vl = machine.vector_length
    factor = vl + extra_scalar_iterations
    assignment = {op.uid: Side.VECTOR for op in dep.loop.body}
    emitter = _WholeIterationEmitter(
        dep,
        machine,
        assignment,
        factor,
        suffix=".wia",
        scratch_elems=scratch_elems,
        vector_width=vl,
        # The unroll factor is never a multiple of VL, so vector memory
        # references cannot be aligned regardless of alignment knowledge.
        force_misaligned=True,
    )
    main_loop, liveout = emitter.build()
    from repro.ir.verifier import verify_loop

    verify_loop(main_loop)

    scalar_assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    cleanup_emitter = _Emitter(
        dep, machine, scalar_assignment, 1, ".cl", scratch_elems
    )
    cleanup, cleanup_liveout = cleanup_emitter.build()
    verify_loop(cleanup)

    return TransformResult(
        loop=main_loop,
        cleanup=cleanup,
        factor=factor,
        liveout_map=liveout,
        cleanup_liveout_map=cleanup_liveout,
        n_vector_ops=emitter.n_vector_ops,
        n_transfers=emitter.n_transfers,
        n_merges=emitter.n_merges,
    )
