"""Acyclic list scheduling for non-pipelined code.

Cleanup loops and (conceptually) prologue/epilogue code run without
software pipelining; their per-iteration cost is the makespan of a
resource-constrained list schedule of one iteration, honoring
zero-distance dependences and operation latencies.  Loop-carried edges
are ignored — successive iterations of unpipelined code simply run
back-to-back, which the sequential-iteration cost model reflects.

The schedule runs on the modulo scheduler's flat representation:
operations by body position, each zero-distance edge's delay and each
operation's reservation spec (:meth:`MachineDescription.reservation_spec`)
resolved once, and one int bitmask of busy cycles per resource instance
of :meth:`MachineDescription.instance_layout` (bit ``t`` set ⇔ busy at
cycle ``t``).  Each use takes the first free instance of its class.  The
dict-and-name original is the executable specification in
``tests/list_schedule_spec.py``.
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
    body = loop.body
    if not body:
        return 0
    n = len(body)
    index = {op.uid: i for i, op in enumerate(body)}
    infos = [machine.opcode_info(op) for op in body]
    latency = [info.latency for info in infos]
    # Zero-distance edges in graph order, as (src, dst, delay), and per
    # operation its zero-distance predecessors as (src, delay).
    zero: list[tuple[int, int, int]] = []
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        src, dst = index[edge.src], index[edge.dst]
        delay = edge_delay(edge, graph, machine)
        zero.append((src, dst, delay))
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
