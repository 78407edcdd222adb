"""Loop dependence analysis and vectorizability.

Builds the dependence graph for a loop (register flow, loop-carried
scalars, and memory dependences from the subscript tests), finds strongly
connected components with Tarjan's algorithm, and classifies each
operation as vectorizable or not for a given vector length.

The graph is built eagerly; the components and the classification are
computed on first read.  The back end — modulo scheduler, register
allocator, cleanup list scheduler — reads only the graph, so the
analyses of transformed units and cleanup loops never run Tarjan.

Following the paper (Section 3): an operation is vectorizable when it does
not lie on a dependence cycle, *except* that cycles whose total carried
distance is at least the vector length do not prevent vectorization (the
``a[i+4] = a[i]`` case).  Memory operations must additionally be
unit-stride — the modeled machines have no scatter/gather.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from repro.dependence.graph import DepEdge, DependenceGraph, DepKind, Via
from repro.dependence.scc import scc_membership, tarjan_sccs
from repro.dependence.tests import Distance, Independent, test_subscripts
from repro.ir.loop import Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.values import VirtualRegister

_VECTORIZABLE_KINDS = frozenset(
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
        OpKind.LOAD,
        OpKind.STORE,
    }
)


#: (sccs, scc_of, vectorizable) — see :func:`classify_operations`.
Classification = tuple[list[list[int]], dict[int, int], set[int]]


@dataclass
class LoopDependence:
    """The result of dependence analysis on one loop.

    ``sccs``, ``scc_of`` and ``vectorizable`` are computed together on
    the first read of any of them, and ``components`` on its first read;
    both are kept for the object's lifetime.
    """

    loop: Loop
    graph: DependenceGraph
    vector_length: int

    @cached_property
    def _classification(self) -> Classification:
        return classify_operations(self.loop, self.graph, self.vector_length)

    @property
    def sccs(self) -> list[list[int]]:
        """Strongly connected components, in Tarjan's (reverse
        topological) order."""
        return self._classification[0]

    @property
    def scc_of(self) -> dict[int, int]:
        """Operation uid -> index of its component in ``sccs``."""
        return self._classification[1]

    @property
    def vectorizable(self) -> set[int]:
        """Uids of the operations that may be vectorized."""
        return self._classification[2]

    @cached_property
    def components(self) -> list[list[int]]:
        """The components in emission order (:func:`ordered_components`),
        shared by every emitter of the loop."""
        return ordered_components(self)

    def is_vectorizable(self, op: Operation) -> bool:
        return op.uid in self.vectorizable

    def in_cycle(self, uid: int) -> bool:
        scc = self.sccs[self.scc_of[uid]]
        if len(scc) > 1:
            return True
        return any(e.dst == uid for e in self.graph.successors(uid))


def ordered_components(dep: LoopDependence) -> list[list[int]]:
    """SCCs in topological (sources-first) order, each component's members
    in original program order; ties broken by body position."""
    body_index = {op.uid: i for i, op in enumerate(dep.loop.body)}
    sccs, scc_of = dep.sccs, dep.scc_of
    n = len(sccs)
    succs: list[set[int]] = [set() for _ in range(n)]
    preds_count = [0] * n
    for edge in dep.graph.edges:
        a, b = scc_of[edge.src], scc_of[edge.dst]
        if a != b and b not in succs[a]:
            succs[a].add(b)
            preds_count[b] += 1

    def scc_key(i: int) -> int:
        return min(body_index[uid] for uid in sccs[i])

    ready = [(scc_key(i), i) for i in range(n) if preds_count[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in succs[i]:
            preds_count[j] -= 1
            if preds_count[j] == 0:
                heapq.heappush(ready, (scc_key(j), j))
    if len(order) != n:
        raise RuntimeError("dependence condensation is not acyclic")
    return [sorted(sccs[i], key=body_index.__getitem__) for i in order]


def build_dependence_graph(loop: Loop, trip_count: int | None = None) -> DependenceGraph:
    graph = DependenceGraph()
    for op in loop.body:
        graph.add_op(op)

    _add_register_edges(loop, graph)
    _add_memory_edges(loop, graph, trip_count)
    _add_overhead_edges(loop, graph)
    return graph


def _add_overhead_edges(loop: Loop, graph: DependenceGraph) -> None:
    """Sequencing for loop-control operations: pointer bumps and the
    induction increment chain themselves across iterations; the loop-back
    branch consumes the incremented induction variable."""
    ivinc: Operation | None = None
    for op in loop.body:
        if op.kind in (OpKind.BUMP, OpKind.IVINC):
            graph.add_edge(
                DepEdge(op.uid, op.uid, DepKind.FLOW, Via.CONTROL, 1)
            )
            if op.kind is OpKind.IVINC:
                ivinc = op
        elif op.kind is OpKind.CBR and ivinc is not None:
            graph.add_edge(
                DepEdge(ivinc.uid, op.uid, DepKind.FLOW, Via.CONTROL, 0)
            )


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
        for src in op.srcs:
            if not isinstance(src, VirtualRegister):
                continue
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


def _memory_dep_kind(src: Operation, dst: Operation) -> DepKind:
    if src.is_store and dst.is_load:
        return DepKind.FLOW
    if src.is_load and dst.is_store:
        return DepKind.ANTI
    return DepKind.OUTPUT


def memory_lane_subscripts(op: Operation) -> list:
    """The subscripts of every element a memory operation touches.

    Vector memory operations span ``VL`` consecutive innermost elements
    starting at their subscript; dependence tests must consider the whole
    span, not just the first lane.
    """
    assert op.subscript is not None
    if not op.is_vector:
        return [op.subscript]
    ty = op.dest.type if op.is_load else op.stored_value.type
    length = getattr(ty, "length", 1)
    return [op.subscript.plus_innermost(l) for l in range(length)]


def _add_memory_edges(
    loop: Loop, graph: DependenceGraph, trip_count: int | None
) -> None:
    """Test every pair of memory operations on one array that is not two
    loads, each operation against itself and every later one, in body
    order.  The operations are grouped by array, with each one's lane
    subscripts computed once."""
    by_array: dict[str, list[tuple[Operation, list]]] = {}
    # (array group, index in the group) of each memory op, in body order.
    positions: list[tuple[list[tuple[Operation, list]], int]] = []
    for op in loop.body:
        if op.kind.is_memory:
            group = by_array.setdefault(op.array, [])
            positions.append((group, len(group)))
            group.append((op, memory_lane_subscripts(op)))
    for group, i in positions:
        a, lanes_a = group[i]
        for b, lanes_b in group[i:]:
            if a.is_load and b.is_load:
                continue
            distances: set[int] = set()
            unknown = False
            for sa in lanes_a:
                for sb in lanes_b:
                    result = test_subscripts(sa, sb, trip_count)
                    if isinstance(result, Distance):
                        distances.add(result.d)
                    elif not isinstance(result, Independent):
                        unknown = True
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


def _scc_safe_for_vectorization(
    graph: DependenceGraph, members: set[int], vector_length: int
) -> bool:
    """Can operations inside this dependence cycle be vectorized?

    Sound criterion (covers the paper's ``a[i+4] = a[i]`` example): every
    loop-carried edge within the SCC must have an exact distance of at
    least the vector length.  Then each carried dependence still spans at
    least one *transformed* iteration after widening by ``VL``, and the
    zero-distance edges inside the SCC follow body order, so emitting the
    component's operations in program order preserves all dependences.
    """
    for uid in members:
        for edge in graph.successors(uid):
            if edge.dst not in members:
                continue
            if not edge.exact:
                return False
            if 1 <= edge.distance < vector_length:
                return False
    return True


def classify_operations(
    loop: Loop, graph: DependenceGraph, vector_length: int
) -> Classification:
    """Tarjan's components of ``graph`` and the uids of the operations
    of ``loop`` that may be vectorized at ``vector_length``."""
    sccs = tarjan_sccs(
        graph.node_ids(), lambda n: (e.dst for e in graph.successors(n))
    )
    scc_of = scc_membership(sccs)

    scc_safe: dict[int, bool] = {}
    vectorizable: set[int] = set()
    for op in loop.body:
        if op.kind not in _VECTORIZABLE_KINDS:
            continue
        if op.kind.is_memory:
            assert op.subscript is not None
            if not op.subscript.is_unit_stride:
                continue
        scc_index = scc_of[op.uid]
        members = set(sccs[scc_index])
        on_cycle = len(members) > 1 or any(
            e.dst == op.uid for e in graph.successors(op.uid)
        )
        if on_cycle:
            if scc_index not in scc_safe:
                scc_safe[scc_index] = _scc_safe_for_vectorization(
                    graph, members, vector_length
                )
            if not scc_safe[scc_index]:
                continue
        vectorizable.add(op.uid)
    return sccs, scc_of, vectorizable


def analyze_loop(loop: Loop, vector_length: int) -> LoopDependence:
    """Dependence analysis of ``loop`` for a given vector length: the
    graph now, the components and classification on first read."""
    return LoopDependence(
        loop=loop,
        graph=build_dependence_graph(loop),
        vector_length=vector_length,
    )
