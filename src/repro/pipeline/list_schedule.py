"""Acyclic list scheduling for non-pipelined code.

Cleanup loops and (conceptually) prologue/epilogue code run without
software pipelining; their per-iteration cost is the makespan of a
resource-constrained list schedule of one iteration, honoring
zero-distance dependences and operation latencies.  Loop-carried edges
are ignored — successive iterations of unpipelined code simply run
back-to-back, which the sequential-iteration cost model reflects.

:func:`list_schedule_length` prices the scalar cleanup loop of a
transform from the dependence analysis of the loop the transform
consumed, without emitting it.  The cleanup copy keeps every operation's
kind, type and subscript and every dependence edge, so its body is the
source operations in component order followed by the loop overhead, and
its zero-distance edges are the source's plus ``IVINC -> CBR``.

The schedule runs on the modulo scheduler's flat representation:
operations by body position, each zero-distance edge's delay and each
operation's reservation spec (:meth:`MachineDescription.reservation_spec`)
resolved once, and one int bitmask of busy cycles per resource instance
of :meth:`MachineDescription.instance_layout` (bit ``t`` set ⇔ busy at
cycle ``t``).  Each use takes the first free instance of its class.  The
dict-and-name original, and the cleanup loop it was run on, are the
executable specification in ``tests/list_schedule_spec.py``.
"""

from __future__ import annotations

from repro.dependence.analysis import LoopDependence
from repro.ir.operations import OpKind
from repro.ir.types import ScalarType
from repro.machine.machine import MachineDescription
from repro.machine.resources import OpcodeInfo
from repro.pipeline.mii import edge_delay
from repro.vectorize.transform import bumped_arrays


def list_schedule_length(dep: LoopDependence, machine: MachineDescription) -> int:
    """Makespan (cycles) of one sequentially executed iteration of the
    scalar cleanup copy of ``dep.loop``."""
    loop = dep.loop
    op_of = {op.uid: op for op in loop.body}
    body = [op_of[uid] for component in dep.components for uid in component]
    index = {op.uid: i for i, op in enumerate(body)}
    infos = [machine.opcode_info_for(op.kind, op.dtype, False) for op in body]
    # Zero-distance edges as (src, dst, delay); component order keeps
    # every one of them forward.
    zero = [
        (index[edge.src], index[edge.dst], edge_delay(edge, dep.graph, machine))
        for edge in dep.graph.edges
        if edge.distance == 0
    ]
    if machine.model_loop_overhead:
        bump = machine.opcode_info_for(OpKind.BUMP, ScalarType.I64, False)
        infos += [bump] * len(bumped_arrays(loop.body))
        ivinc = machine.opcode_info_for(OpKind.IVINC, ScalarType.I64, False)
        infos += [ivinc, machine.opcode_info_for(OpKind.CBR, ScalarType.I64, False)]
        zero.append((len(infos) - 2, len(infos) - 1, ivinc.latency))
    return _makespan(infos, zero, machine)


def _makespan(
    infos: list[OpcodeInfo],
    zero: list[tuple[int, int, int]],
    machine: MachineDescription,
) -> int:
    """The list-schedule makespan of operations with opcode ``infos``, in
    body order, under the zero-distance edges ``zero``."""
    n = len(infos)
    if not n:
        return 0
    latency = [info.latency for info in infos]
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for src, dst, delay in zero:
        preds[dst].append((src, delay))

    # Critical-path priority over zero-distance edges.
    height = list(latency)
    for _ in range(n):
        changed = False
        for src, dst, delay in zero:
            candidate = height[dst] + delay
            if candidate > height[src]:
                height[src] = candidate
                changed = True
        if not changed:
            break

    specs = [machine.reservation_spec(info) for info in infos]
    busy = [0] * len(machine.instance_layout()[0])
    times = [-1] * n  # -1 = not yet scheduled
    makespan = 0
    for i in sorted(range(n), key=lambda i: (-height[i], i)):
        t = 0
        for src, delay in preds[i]:
            ts = times[src]
            if ts >= 0 and ts + delay > t:
                t = ts + delay
        spec = specs[i]
        while (taken := _first_fit(busy, spec, t)) is None:
            t += 1
        for k, mask in taken.items():
            busy[k] |= mask
        times[i] = t
        makespan = max(makespan, t + latency[i])
    return makespan


def _first_fit(
    busy: list[int], spec: tuple[tuple[int, int, int], ...], t: int
) -> dict[int, int] | None:
    """The cycles each instance would take if the op issued at ``t``, as
    ``{instance index: mask}`` — every use on the first instance of its
    class free for all its cycles — or None when some use finds none."""
    taken: dict[int, int] = {}
    for first, count, cycles in spec:
        mask = ((1 << cycles) - 1) << t
        for k in range(first, first + count):
            held = taken.get(k, 0)
            if (busy[k] | held) & mask == 0:
                taken[k] = held | mask
                break
        else:
            return None
    return taken
