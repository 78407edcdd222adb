"""Loop transformation (paper Section 3.3).

Given a partition assignment, construct the transformed loop:

* operations in the vector partition are replaced with vector opcodes;
* scalar operations are emitted ``k`` times (``k`` = vector length),
  which also implements the unroll-by-``k`` baseline when no operation is
  vectorized;
* strongly connected components are emitted in topological order, with a
  component's operations in original program order — the in-place
  analogue of traditional vectorization's loop distribution;
* explicit transfer operations move operands between partitions through
  scratch memory (one transfer per operand; all consumers reuse it);
* misaligned vector memory references receive a merge operation, with the
  previous iteration's aligned chunk carried in a vector register (the
  reuse scheme of [13, 40]);
* the loop increment is adjusted to the vector length and a cleanup loop
  handles residual iterations.

:func:`assemble` is the one place a transformed loop is put together.
:func:`transform_loop` hands it the plain emitter; the Section 6
extensions hand it emitters that override the per-operation hooks
``emit_op`` and ``liveout``.

The emitted loop is *normalized*: its induction variable ``j`` advances by
one per body execution and each execution covers ``factor`` original
iterations, with subscripts rewritten accordingly (``c*i + o`` at original
iteration ``i = factor*j + lane`` becomes ``c*factor*j + (o + c*lane)``).
Normalization lets the same dependence analysis, scheduler, and
interpreter run unchanged on transformed loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.dependence.analysis import LoopDependence
from repro.ir.loop import ArrayInfo, CarriedScalar, Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.subscripts import AffineExpr, Subscript
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import (
    Constant,
    Operand,
    VirtualRegister,
    lane_register,
    vector_register,
)
from repro.ir.verifier import verify_loop
from repro.machine.machine import CommunicationModel, MachineDescription
from repro.vectorize.alignment import reference_is_misaligned
from repro.vectorize.communication import Side

SCRATCH_PREFIX = "xfer."
# Elements in each transfer (and scalar-expansion) scratch array.
SCRATCH_ELEMS = 1 << 14


@dataclass(frozen=True)
class LiveOut:
    """Where an original live-out value lives in the transformed loop.

    ``combine`` (set by reduction vectorization) means the register is a
    vector of partial accumulations whose lanes must be folded with the
    named carried scalar's pre-loop value to produce the final result."""

    register: VirtualRegister
    lane: int | None = None  # set when the value is a lane of a vector register
    combine: OpKind | None = None
    combine_entry: str | None = None


@dataclass
class TransformResult:
    """A transformed (or merely lowered) loop plus bookkeeping."""

    loop: Loop
    cleanup: Loop | None
    factor: int
    liveout_map: dict[str, LiveOut]
    cleanup_liveout_map: dict[str, LiveOut] | None
    n_vector_ops: int = 0
    n_transfers: int = 0
    n_merges: int = 0
    # original carried-entry name -> (reduction kind, vector accumulator
    # entry name); set by reduction vectorization (Section 6 extension)
    reduction_combines: dict[str, tuple[OpKind, str]] = field(default_factory=dict)
    # the loop the transform consumed, for translation validation;
    # None when the producing pass cannot state one (the checker then
    # skips vectorize-stage obligations with an INFO finding)
    source: Loop | None = None

    @property
    def vectorized(self) -> bool:
        return self.n_vector_ops > 0


def _topo_by_intra_edges(
    dep: LoopDependence, members: list[int], body_index: dict[int, int]
) -> list[int]:
    """Order a component's members so zero-distance edges go forward;
    ties follow program order (``body_index``: uid -> body position).
    (The zero-distance subgraph of an SCC is acyclic — a zero-distance
    cycle would be unschedulable.)"""
    member_set = set(members)
    import heapq

    preds_count = {uid: 0 for uid in members}
    succs: dict[int, list[int]] = {uid: [] for uid in members}
    for uid in members:
        for edge in dep.graph.successors(uid):
            if edge.distance == 0 and edge.dst in member_set and edge.dst != uid:
                succs[uid].append(edge.dst)
                preds_count[edge.dst] += 1
    ready = [(body_index[uid], uid) for uid in members if preds_count[uid] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, uid = heapq.heappop(ready)
        order.append(uid)
        for v in succs[uid]:
            preds_count[v] -= 1
            if preds_count[v] == 0:
                heapq.heappush(ready, (body_index[v], v))
    if len(order) != len(members):
        raise RuntimeError("zero-distance cycle inside a dependence component")
    return order


class _Emitter:
    """Emits the transformed loop body for one partition assignment."""

    def __init__(
        self,
        dep: LoopDependence,
        machine: MachineDescription,
        assignment: dict[int, Side],
        factor: int,
        suffix: str,
        vector_width: int | None = None,
        force_misaligned: bool = False,
    ):
        self.dep = dep
        self.loop = dep.loop
        self.machine = machine
        self.assignment = assignment
        self.factor = factor
        self.suffix = suffix
        # Vector operations normally cover all `factor` lanes; the
        # whole-iteration-assignment extension (paper Section 6) emits
        # narrower vector ops plus scalar iterations on the side.
        self.vector_width = vector_width if vector_width is not None else factor
        self.force_misaligned = force_misaligned

        self.body: list[Operation] = []
        self.preheader: list[Operation] = list(self.loop.preheader)
        self.arrays: dict[str, ArrayInfo] = dict(self.loop.arrays)
        self.carried: list[CarriedScalar] = []

        self.op_of: dict[int, Operation] = {op.uid: op for op in self.loop.body}
        self.body_index = {op.uid: i for i, op in enumerate(self.loop.body)}
        self.def_op: dict[VirtualRegister, Operation] = {
            op.dest: op for op in self.loop.body if op.dest is not None
        }
        self.carried_by_entry = {c.entry: c for c in self.loop.carried}
        self.lane_defs: dict[tuple[int, int], VirtualRegister] = {}
        self.vector_defs: dict[int, VirtualRegister] = {}
        self._packed: dict[object, VirtualRegister] = {}
        self._unpacked: dict[int, list[VirtualRegister]] = {}
        self._splats: dict[str, VirtualRegister] = {}
        self._fresh = itertools.count()

        self.n_vector_ops = 0
        self.n_transfers = 0
        self.n_merges = 0

    # ------------------------------------------------------------------
    # Subscript rewriting into normalized j-space.

    def _lane_subscript(self, sub: Subscript, lane: int) -> Subscript:
        return Subscript(
            tuple(
                AffineExpr(d.coeff * self.factor, d.offset + d.coeff * lane, d.symbols)
                for d in sub.dims
            )
        )

    def _vector_subscript(self, sub: Subscript) -> Subscript:
        # Unit-stride references only: lane 0 of the vector access.
        return self._lane_subscript(sub, 0)

    # ------------------------------------------------------------------
    # Operand mapping.

    def scalar_operand(self, src: Operand, lane: int) -> Operand:
        if isinstance(src, Constant):
            return src
        producer = self.def_op.get(src)
        if producer is not None:
            # Whole-iteration assignment emits vector ops *and* scalar
            # replicas for the extra lanes; prefer the direct lane copy.
            if (producer.uid, lane) in self.lane_defs:
                return self.lane_defs[(producer.uid, lane)]
            if producer.uid in self.vector_defs:
                return self.unpack(producer)[lane]
            return self.lane_defs[(producer.uid, lane)]
        carried = self.carried_by_entry.get(src)
        if carried is not None:
            return self.carried_value(carried, lane)
        return src  # loop invariant (preheader-defined)

    def carried_value(self, carried: CarriedScalar, lane: int) -> Operand:
        if lane == 0:
            return carried.entry
        if isinstance(carried.exit, Constant):
            return carried.exit
        if carried.exit == carried.entry:
            return carried.entry
        return self.scalar_operand(carried.exit, lane - 1)

    def vector_operand(self, src: Operand) -> Operand:
        if isinstance(src, Constant):
            return src  # immediate: broadcast by the vector unit
        producer = self.def_op.get(src)
        if producer is not None:
            if producer.uid in self.vector_defs:
                return self.vector_defs[producer.uid]
            values = [
                self.lane_defs[(producer.uid, l)]
                for l in range(self.vector_width)
            ]
            return self.pack(producer.uid, src.name, values, producer.dtype)
        carried = self.carried_by_entry.get(src)
        if carried is not None:
            if carried.exit == carried.entry:
                return self.splat(src)  # never updated: loop invariant
            values = [
                self.carried_value(carried, l)
                for l in range(self.vector_width)
            ]
            dtype = src.type
            assert isinstance(dtype, ScalarType)
            return self.pack(("carried", src.name), src.name, values, dtype)
        return self.splat(src)  # loop invariant

    # ------------------------------------------------------------------
    # Transfers.

    def _scratch(self, name: str, dtype: ScalarType) -> str:
        array = f"{SCRATCH_PREFIX}{name}"
        if array not in self.arrays:
            self.arrays[array] = ArrayInfo(
                array, dtype, (SCRATCH_ELEMS,), alignment_offset=0
            )
        return array

    def pack(
        self,
        key: object,
        name: str,
        values: list[Operand],
        dtype: ScalarType,
    ) -> VirtualRegister:
        """Scalar -> vector transfer: VL scalar stores + one vector load,
        or a free register move on machines with an operand network."""
        if key in self._packed:
            return self._packed[key]
        if self.machine.communication is CommunicationModel.FREE:
            dest = VirtualRegister(
                f"{name}.pk", VectorType(dtype, self.vector_width)
            )
            self.body.append(
                Operation(
                    OpKind.PACK,
                    dtype,
                    dest=dest,
                    srcs=tuple(values),
                    is_vector=True,
                )
            )
            self._packed[key] = dest
            self.n_transfers += 1
            return dest
        array = self._scratch(name, dtype)
        for lane, value in enumerate(values):
            self.body.append(
                Operation(
                    OpKind.STORE,
                    dtype,
                    srcs=(value,),
                    array=array,
                    subscript=Subscript((AffineExpr(self.factor, lane),)),
                )
            )
        dest = VirtualRegister(
            f"{name}.pk", VectorType(dtype, self.vector_width)
        )
        self.body.append(
            Operation(
                OpKind.LOAD,
                dtype,
                dest=dest,
                array=array,
                subscript=Subscript((AffineExpr(self.factor, 0),)),
                is_vector=True,
            )
        )
        self._packed[key] = dest
        self.n_transfers += 1
        return dest

    def unpack(self, producer: Operation) -> list[VirtualRegister]:
        """Vector -> scalar transfer: one vector store + VL scalar loads,
        or free lane extracts on machines with an operand network."""
        if producer.uid in self._unpacked:
            return self._unpacked[producer.uid]
        vreg = self.vector_defs[producer.uid]
        dtype = producer.dtype
        assert producer.dest is not None
        if self.machine.communication is CommunicationModel.FREE:
            lanes = []
            for lane in range(self.vector_width):
                dest = VirtualRegister(f"{producer.dest.name}.up{lane}", dtype)
                self.body.append(
                    Operation(
                        OpKind.EXTRACT,
                        dtype,
                        dest=dest,
                        srcs=(vreg,),
                        lane=lane,
                    )
                )
                lanes.append(dest)
            self._unpacked[producer.uid] = lanes
            self.n_transfers += 1
            return lanes
        array = self._scratch(producer.dest.name, dtype)
        self.body.append(
            Operation(
                OpKind.STORE,
                dtype,
                srcs=(vreg,),
                array=array,
                subscript=Subscript((AffineExpr(self.factor, 0),)),
                is_vector=True,
            )
        )
        lanes: list[VirtualRegister] = []
        for lane in range(self.vector_width):
            dest = VirtualRegister(f"{producer.dest.name}.up{lane}", dtype)
            self.body.append(
                Operation(
                    OpKind.LOAD,
                    dtype,
                    dest=dest,
                    array=array,
                    subscript=Subscript((AffineExpr(self.factor, lane),)),
                )
            )
            lanes.append(dest)
        self._unpacked[producer.uid] = lanes
        self.n_transfers += 1
        return lanes

    def splat(self, src: VirtualRegister) -> VirtualRegister:
        """Broadcast a loop-invariant scalar once, in the preheader."""
        if src.name in self._splats:
            return self._splats[src.name]
        dtype = src.type
        assert isinstance(dtype, ScalarType)
        dest = VirtualRegister(
            f"{src.name}.sp", VectorType(dtype, self.vector_width)
        )
        self.preheader.append(
            Operation(OpKind.COPY, dtype, dest=dest, srcs=(src,), is_vector=True)
        )
        self._splats[src.name] = dest
        return dest

    # ------------------------------------------------------------------
    # Operation emission.

    def emit_scalar(self, op: Operation, lane: int) -> None:
        srcs = tuple(self.scalar_operand(s, lane) for s in op.srcs)
        dest = lane_register(op.dest, lane) if op.dest is not None else None
        subscript = (
            self._lane_subscript(op.subscript, lane)
            if op.subscript is not None
            else None
        )
        emitted = Operation(
            op.kind,
            op.dtype,
            dest=dest,
            srcs=srcs,
            array=op.array,
            subscript=subscript,
            origin=op.uid,
            lane=lane,
        )
        self.body.append(emitted)
        if dest is not None:
            self.lane_defs[(op.uid, lane)] = dest

    def emit_vector(self, op: Operation) -> None:
        self.n_vector_ops += 1
        if op.kind.is_memory:
            self._emit_vector_memory(op)
            return
        srcs = tuple(self.vector_operand(s) for s in op.srcs)
        assert op.dest is not None
        dest = vector_register(op.dest, self.vector_width)
        self.body.append(
            Operation(
                op.kind,
                op.dtype,
                dest=dest,
                srcs=srcs,
                is_vector=True,
                origin=op.uid,
            )
        )
        self.vector_defs[op.uid] = dest

    def _emit_vector_memory(self, op: Operation) -> None:
        assert op.subscript is not None and op.array is not None
        sub = self._vector_subscript(op.subscript)
        misaligned = self.force_misaligned or (
            self.machine.needs_alignment_merges
            and reference_is_misaligned(self.machine, self.loop, op)
        )
        vtype = VectorType(op.dtype, self.vector_width)

        if op.is_load:
            assert op.dest is not None
            final = vector_register(op.dest, self.vector_width)
            if misaligned:
                raw = VirtualRegister(f"{op.dest.name}.al", vtype)
                self.body.append(
                    Operation(
                        OpKind.LOAD,
                        op.dtype,
                        dest=raw,
                        array=op.array,
                        subscript=sub,
                        is_vector=True,
                        origin=op.uid,
                    )
                )
                prev = VirtualRegister(f"{op.dest.name}.prev", vtype)
                self.body.append(
                    Operation(
                        OpKind.MERGE,
                        op.dtype,
                        dest=final,
                        srcs=(raw, prev),
                        is_vector=True,
                        origin=op.uid,
                    )
                )
                self.carried.append(CarriedScalar(prev, raw, 0.0))
                self.n_merges += 1
            else:
                self.body.append(
                    Operation(
                        OpKind.LOAD,
                        op.dtype,
                        dest=final,
                        array=op.array,
                        subscript=sub,
                        is_vector=True,
                        origin=op.uid,
                    )
                )
            self.vector_defs[op.uid] = final
            return

        value = self.vector_operand(op.stored_value)
        if misaligned:
            merged = VirtualRegister(f"st{next(self._fresh)}.mg", vtype)
            prev = VirtualRegister(f"st{next(self._fresh)}.prev", vtype)
            self.body.append(
                Operation(
                    OpKind.MERGE,
                    op.dtype,
                    dest=merged,
                    srcs=(value, prev),
                    is_vector=True,
                    origin=op.uid,
                )
            )
            self.carried.append(CarriedScalar(prev, value, 0.0))
            self.n_merges += 1
            value = merged
        self.body.append(
            Operation(
                OpKind.STORE,
                op.dtype,
                srcs=(value,),
                array=op.array,
                subscript=sub,
                is_vector=True,
                origin=op.uid,
            )
        )

    # ------------------------------------------------------------------

    def emit_op(self, op: Operation) -> None:
        """Emit one operation of a component with vector members: a
        vector operation, or a scalar one as a group of lanes."""
        if self.assignment[op.uid] is Side.VECTOR:
            self.emit_vector(op)
        else:
            for lane in range(self.factor):
                self.emit_scalar(op, lane)

    def emit_component(self, members: list[int]) -> None:
        if not any(self.assignment[uid] is Side.VECTOR for uid in members):
            # Pure scalar component: interleave lanes across operations so
            # per-lane execution matches the original sequential order —
            # required for recurrences threading through carried scalars.
            ops = [self.op_of[uid] for uid in members]
            for lane in range(self.factor):
                for op in ops:
                    self.emit_scalar(op, lane)
            return
        # Component with vector members: all carried edges inside span at
        # least VL original iterations, so lanes of a scalar member are
        # mutually independent within one transformed iteration.  Emit in
        # zero-distance topological order.
        for uid in _topo_by_intra_edges(self.dep, members, self.body_index):
            self.emit_op(self.op_of[uid])

    def emit_overhead(self) -> None:
        if not self.machine.model_loop_overhead:
            return
        original_arrays = sorted(
            {
                op.array
                for op in self.body
                if op.kind.is_memory
                and op.array is not None
                and not op.array.startswith(SCRATCH_PREFIX)
            }
        )
        for array in original_arrays:
            dest = VirtualRegister(f"ptr.{array}", ScalarType.I64)
            self.body.append(Operation(OpKind.BUMP, ScalarType.I64, dest=dest))
        self.body.append(
            Operation(
                OpKind.IVINC,
                ScalarType.I64,
                dest=VirtualRegister("iv.next", ScalarType.I64),
            )
        )
        self.body.append(Operation(OpKind.CBR, ScalarType.I64))

    def finalize_carried(self) -> None:
        for c in self.loop.carried:
            if isinstance(c.exit, Constant) or c.exit == c.entry:
                exit_value: Operand = c.exit
            else:
                exit_value = self.scalar_operand(c.exit, self.factor - 1)
            self.carried.append(CarriedScalar(c.entry, exit_value, c.init))

    def liveout(self, reg: VirtualRegister) -> LiveOut:
        """Where the original live-out ``reg`` holds the value of the last
        original iteration an execution covers."""
        producer = self.def_op.get(reg)
        if producer is None:
            return LiveOut(reg)
        last = (producer.uid, self.factor - 1)
        # A scalar copy of the last lane wins over a vector lane:
        # whole-iteration assignment runs the last iteration of each
        # group in scalar form beside the vector operation.
        if last in self.lane_defs:
            return LiveOut(self.lane_defs[last])
        return LiveOut(self.vector_defs[producer.uid], lane=self.factor - 1)

    def build(self) -> tuple[Loop, dict[str, LiveOut]]:
        for component in self.dep.components:
            self.emit_component(component)
        self.finalize_carried()
        mapping = {reg.name: self.liveout(reg) for reg in self.loop.live_out}
        self.emit_overhead()
        live_out = tuple(
            dict.fromkeys(
                spec.register for spec in mapping.values()
            )
        )
        loop = Loop(
            name=f"{self.loop.name}{self.suffix}",
            body=tuple(self.body),
            arrays=self.arrays,
            carried=tuple(self.carried),
            live_out=live_out,
            preheader=tuple(self.preheader),
            increment=self.factor,
            symbols=dict(self.loop.symbols),
        )
        return loop, mapping


def assemble(emitter: _Emitter, **result_fields) -> TransformResult:
    """Build ``emitter``'s loop and, when it covers more than one original
    iteration per execution, the scalar cleanup loop for the residual
    iterations; verify both.  ``result_fields`` fill in the rest of the
    :class:`TransformResult` (``source``, ``reduction_combines``)."""
    main_loop, liveout = emitter.build()
    verify_loop(main_loop)

    cleanup: Loop | None = None
    cleanup_liveout: dict[str, LiveOut] | None = None
    if emitter.factor > 1:
        dep = emitter.dep
        scalar_assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
        cleanup, cleanup_liveout = _Emitter(
            dep, emitter.machine, scalar_assignment, 1, ".cl"
        ).build()
        verify_loop(cleanup)

    return TransformResult(
        loop=main_loop,
        cleanup=cleanup,
        factor=emitter.factor,
        liveout_map=liveout,
        cleanup_liveout_map=cleanup_liveout,
        n_vector_ops=emitter.n_vector_ops,
        n_transfers=emitter.n_transfers,
        n_merges=emitter.n_merges,
        **result_fields,
    )


def transform_loop(
    dep: LoopDependence,
    machine: MachineDescription,
    assignment: dict[int, Side],
    factor: int,
    suffix: str = ".xf",
) -> TransformResult:
    """Apply a partition assignment, producing the main transformed loop
    (normalized to ``factor`` original iterations per execution) and, when
    ``factor > 1``, the cleanup loop for residual iterations."""
    loop = dep.loop
    if any(side is Side.VECTOR for side in assignment.values()) and factor not in (
        machine.vector_length,
    ):
        raise ValueError("vectorized transformation requires factor == VL")
    for op in loop.body:
        if op.uid not in assignment:
            raise ValueError(f"assignment missing for {op}")
        if assignment[op.uid] is Side.VECTOR and not dep.is_vectorizable(op):
            raise ValueError(f"operation {op} is not vectorizable")

    emitter = _Emitter(dep, machine, assignment, factor, suffix)
    return assemble(emitter, source=loop)
