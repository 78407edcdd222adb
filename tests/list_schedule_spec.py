"""Executable specification of the cleanup-loop list scheduler.

This is the dict-and-name ``list_schedule_length`` the flat
implementation in :mod:`repro.pipeline.list_schedule` replaced, kept
verbatim: ``edge_delay`` evaluated inside the critical-path fixpoint and
the predecessor scan, and reservations as per-cycle sets of resource
instance names, each use taking the first free instance of its class.
``tests/test_flat_kernels.py`` requires the flat scheduler's makespan to
equal this one's.
"""

from __future__ import annotations

from repro.dependence.graph import DependenceGraph
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.pipeline.mii import edge_delay


def list_schedule_length(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
) -> int:
    """Makespan (cycles) of one sequentially executed iteration."""
    if not loop.body:
        return 0
    # Critical-path priority over zero-distance edges.
    height = {op.uid: machine.opcode_info(op).latency for op in loop.body}
    for _ in range(len(loop.body)):
        changed = False
        for edge in graph.edges:
            if edge.distance != 0:
                continue
            candidate = height[edge.dst] + edge_delay(edge, graph, machine)
            if candidate > height[edge.src]:
                height[edge.src] = candidate
                changed = True
        if not changed:
            break

    body_index = {op.uid: i for i, op in enumerate(loop.body)}
    pending = sorted(
        loop.body, key=lambda op: (-height[op.uid], body_index[op.uid])
    )
    times: dict[int, int] = {}
    # row -> set of busy (instance) names
    busy: dict[int, set[str]] = {}
    makespan = 0

    for op in pending:
        earliest = 0
        for edge in graph.predecessors(op.uid):
            if edge.distance != 0 or edge.src not in times:
                continue
            earliest = max(
                earliest, times[edge.src] + edge_delay(edge, graph, machine)
            )
        info = machine.opcode_info(op)
        t = earliest
        while True:
            ok = True
            chosen: list[tuple[int, str]] = []
            taken: set[tuple[int, str]] = set()
            for use in info.uses:
                rc = machine.resource_class(use.resource)
                placed = False
                for instance in rc.instances():
                    cells = [
                        (t + k, instance) for k in range(use.cycles)
                    ]
                    if any(
                        c[1] in busy.get(c[0], set()) or c in taken for c in cells
                    ):
                        continue
                    chosen.extend(cells)
                    taken.update(cells)
                    placed = True
                    break
                if not placed:
                    ok = False
                    break
            if ok:
                for cycle, instance in chosen:
                    busy.setdefault(cycle, set()).add(instance)
                times[op.uid] = t
                makespan = max(makespan, t + info.latency)
                break
            t += 1

    return makespan
