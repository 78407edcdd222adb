"""Executable specification of the dependence-graph builder.

This is the pair-by-pair builder the grouped one in
:mod:`repro.dependence.analysis` replaced, kept verbatim: register
sources read through ``Operation.registers_read``, and every pair of
memory operations visited across all arrays, with both operations' lane
subscripts rebuilt for every pair (``_pairwise_distances``).  The
overhead sequencing edges are unchanged and come from the module under
test.  ``tests/test_flat_kernels.py`` requires the grouped builder to
emit the same edges in the same order as this one.
"""

from __future__ import annotations

from repro.dependence.analysis import (
    _add_overhead_edges,
    _memory_dep_kind,
    memory_lane_subscripts,
)
from repro.dependence.graph import DepEdge, DependenceGraph, DepKind, Via
from repro.dependence.tests import Distance, Independent, test_subscripts
from repro.ir.loop import Loop
from repro.ir.operations import Operation
from repro.ir.values import VirtualRegister


def build_dependence_graph(loop: Loop, trip_count: int | None = None) -> DependenceGraph:
    graph = DependenceGraph()
    for op in loop.body:
        graph.add_op(op)

    _add_register_edges(loop, graph)
    _add_memory_edges(loop, graph, trip_count)
    _add_overhead_edges(loop, graph)
    return graph


def _add_register_edges(loop: Loop, graph: DependenceGraph) -> None:
    def_of: dict[VirtualRegister, Operation] = {}
    for op in loop.body:
        if op.dest is not None:
            def_of[op.dest] = op

    carried_exit_def: dict[VirtualRegister, Operation] = {}
    for c in loop.carried:
        if isinstance(c.exit, VirtualRegister) and c.exit in def_of:
            carried_exit_def[c.entry] = def_of[c.exit]

    for op in loop.body:
        for src in op.registers_read():
            producer = def_of.get(src)
            if producer is not None and producer.uid != op.uid:
                graph.add_edge(
                    DepEdge(producer.uid, op.uid, DepKind.FLOW, Via.REGISTER, 0)
                )
                continue
            carried_producer = carried_exit_def.get(src)
            if carried_producer is not None:
                graph.add_edge(
                    DepEdge(
                        carried_producer.uid, op.uid, DepKind.FLOW, Via.CARRIED, 1
                    )
                )


def _pairwise_distances(
    a: Operation, b: Operation, trip_count: int | None
) -> tuple[set[int], bool]:
    """(exact distances, any-unknown) across all lane pairs of a and b."""
    distances: set[int] = set()
    unknown = False
    for sa in memory_lane_subscripts(a):
        for sb in memory_lane_subscripts(b):
            result = test_subscripts(sa, sb, trip_count)
            if isinstance(result, Independent):
                continue
            if isinstance(result, Distance):
                distances.add(result.d)
            else:
                unknown = True
    return distances, unknown


def _add_memory_edges(
    loop: Loop, graph: DependenceGraph, trip_count: int | None
) -> None:
    mem_ops = [op for op in loop.body if op.kind.is_memory]
    for i, a in enumerate(mem_ops):
        for b in mem_ops[i:]:
            if a.array != b.array:
                continue
            if a.is_load and b.is_load:
                continue
            distances, unknown = _pairwise_distances(a, b, trip_count)
            if unknown:
                # Conservative cycle that serializes the pair.
                if a.uid == b.uid:
                    graph.add_edge(
                        DepEdge(
                            a.uid,
                            a.uid,
                            _memory_dep_kind(a, a),
                            Via.MEMORY,
                            1,
                            exact=False,
                        )
                    )
                else:
                    graph.add_edge(
                        DepEdge(
                            a.uid,
                            b.uid,
                            _memory_dep_kind(a, b),
                            Via.MEMORY,
                            0,
                            exact=False,
                        )
                    )
                    graph.add_edge(
                        DepEdge(
                            b.uid,
                            a.uid,
                            _memory_dep_kind(b, a),
                            Via.MEMORY,
                            1,
                            exact=False,
                        )
                    )
                continue
            for d in sorted(distances):
                if a.uid == b.uid:
                    if d > 0:
                        graph.add_edge(
                            DepEdge(
                                a.uid, a.uid, _memory_dep_kind(a, a), Via.MEMORY, d
                            )
                        )
                    continue
                if d > 0:
                    graph.add_edge(
                        DepEdge(a.uid, b.uid, _memory_dep_kind(a, b), Via.MEMORY, d)
                    )
                elif d < 0:
                    graph.add_edge(
                        DepEdge(b.uid, a.uid, _memory_dep_kind(b, a), Via.MEMORY, -d)
                    )
                else:
                    # Same iteration: ordered by position in the body.
                    graph.add_edge(
                        DepEdge(a.uid, b.uid, _memory_dep_kind(a, b), Via.MEMORY, 0)
                    )
