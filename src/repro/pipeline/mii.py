"""Minimum initiation interval bounds, with provenance.

``ResMII`` — the resource-constrained bound — is computed by the same
greedy bin-packing the partitioner uses: every operation's reservation,
resolved once from its actual opcode, packed in one
:meth:`~repro.vectorize.bins.Bins.replay`.  ``RecMII`` — the
recurrence-constrained bound — is the smallest II admitting no
positive-weight dependence cycle under edge weights
``delay(e) - II * distance(e)``, found by cycle-ratio iteration: a
positive cycle at II needs an II of at least its
``ceil(delay / distance)``, so from II = 1 each cycle Bellman-Ford finds
raises II to that bound, until none is left.  Each run either ends the
search or strictly raises II, so a unit pays one run per improving
cycle, one that finds none and, when RecMII > 1, one to extract the
critical cycle, found one II below the bound.

The Bellman-Ford runs (:func:`_relax_pred`, which tracks predecessor
edges so a positive cycle can be walked) work on :class:`GraphArrays` —
the dependence graph flattened once per loop into dense-index edge
arrays with preallocated distance and predecessor scratch — so each run
is pure list indexing with no dict hashing and no per-run allocation
beyond the weight table.

Both bounds come back as :class:`int` subclasses that additionally carry
*why* the bound is what it is: :class:`ResMII` holds the per-resource
pressure table and the bottleneck resource instance; :class:`RecMII`
holds the critical recurrence cycle (the dependence edges whose
delay/distance ratio pins the bound).  Existing arithmetic/comparison
callers are unaffected — the provenance rides along for the remark
emitters and the ``--explain`` renderers.
"""

from __future__ import annotations

from operator import itemgetter

from repro.dependence.graph import DepEdge, DependenceGraph, DepKind
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.observability.recorder import active_recorder
from repro.vectorize.bins import Bins, placement_freedom


class DependenceCycleError(RuntimeError):
    """The dependence graph has a zero-distance cycle: the loop body
    requires an operation to precede itself within one iteration, so no
    initiation interval is feasible.  ``cycle`` names the operations on
    the offending cycle in dependence order."""

    def __init__(self, graph: DependenceGraph, cycle_edges: list[DepEdge]):
        self.cycle_edges = tuple(cycle_edges)
        self.cycle = tuple(e.src for e in cycle_edges)
        ops = " -> ".join(
            f"{uid}:{graph.ops[uid].mnemonic()}" for uid in self.cycle
        )
        closing = f" -> {self.cycle[0]}:{graph.ops[self.cycle[0]].mnemonic()}"
        super().__init__(
            "dependence graph has a zero-distance cycle through "
            f"{ops}{closing if self.cycle else ''}"
        )


class ResMII(int):
    """Resource-constrained bound plus its provenance.

    ``pressure`` maps each resource instance to its packed busy cycles
    (per VL original iterations on an untransformed loop); ``bottleneck``
    is the instance whose pressure equals the bound, or ``None`` when the
    loop exerts no resource pressure at all.
    """

    pressure: dict[str, int]
    bottleneck: str | None

    def __new__(
        cls,
        value: int,
        pressure: dict[str, int] | None = None,
        bottleneck: str | None = None,
    ) -> "ResMII":
        self = super().__new__(cls, value)
        self.pressure = dict(pressure or {})
        self.bottleneck = bottleneck
        return self

    def pressure_rows(self) -> list[tuple[str, int]]:
        """Pressure table sorted most-loaded-first (render order)."""
        return sorted(self.pressure.items(), key=lambda kv: (-kv[1], kv[0]))


class RecMII(int):
    """Recurrence-constrained bound plus its critical cycle.

    ``cycle`` lists the operation uids on a recurrence whose
    ``ceil(delay / distance)`` equals the bound (empty when no recurrence
    constrains the loop); ``cycle_edges`` are the dependence edges walked,
    and ``cycle_delay`` / ``cycle_distance`` their totals.
    """

    cycle: tuple[int, ...]
    cycle_edges: tuple[DepEdge, ...]
    cycle_delay: int
    cycle_distance: int

    def __new__(
        cls,
        value: int,
        cycle_edges: tuple[DepEdge, ...] | list[DepEdge] = (),
        cycle_delay: int = 0,
        cycle_distance: int = 0,
    ) -> "RecMII":
        self = super().__new__(cls, value)
        self.cycle_edges = tuple(cycle_edges)
        self.cycle = tuple(e.src for e in self.cycle_edges)
        self.cycle_delay = cycle_delay
        self.cycle_distance = cycle_distance
        return self

    def describe_cycle(self, ops=None) -> str:
        """``uid:mnemonic -> ...`` walk of the critical cycle.  ``ops``
        may be a :class:`DependenceGraph` or a ``{uid: Operation}`` map;
        without it the walk shows bare uids."""
        if not self.cycle:
            return "(no recurrence)"
        if ops is not None and hasattr(ops, "ops"):
            ops = ops.ops

        def tag(uid: int) -> str:
            if ops is not None and uid in ops:
                return f"{uid}:{ops[uid].mnemonic()}"
            return str(uid)

        walk = " -> ".join(tag(uid) for uid in self.cycle)
        return f"{walk} -> {tag(self.cycle[0])}"


def edge_delay(
    edge: DepEdge, graph: DependenceGraph, machine: MachineDescription
) -> int:
    """Minimum issue separation implied by a dependence edge.

    Flow dependences wait for the producer's latency; anti dependences
    allow same-cycle issue; output dependences require one cycle so the
    later write wins.
    """
    if edge.kind is DepKind.FLOW:
        return machine.opcode_info(graph.ops[edge.src]).latency
    if edge.kind is DepKind.ANTI:
        return 0
    return 1


def edge_delays(
    graph: DependenceGraph, machine: MachineDescription
) -> dict[DepEdge, int]:
    """Per-edge delay table as a dict — the shape external callers (the
    oracle, the schedule checker) consume."""
    return {e: edge_delay(e, graph, machine) for e in graph.edges}


class GraphArrays:
    """A dependence graph flattened to dense-index edge arrays.

    Built once per (loop, machine); every Bellman-Ford probe, height
    relaxation, and scheduling pass then works on parallel int lists —
    ``esrc``/``edst`` (dense node indices), ``delay``/``edist`` (edge
    delay and iteration distance) — in ``graph.edges`` order, with
    ``_dist``/``_pred`` scratch reused across probes.
    """

    __slots__ = (
        "graph",
        "uids",
        "index",
        "edges",
        "esrc",
        "edst",
        "delay",
        "edist",
        "max_delay",
        "_dist",
        "_pred",
    )

    def __init__(self, graph: DependenceGraph, machine: MachineDescription):
        self.graph = graph
        self.uids = list(graph.node_ids())
        index = {uid: i for i, uid in enumerate(self.uids)}
        self.index = index
        edges = list(graph.edges)
        self.edges = edges
        self.esrc = [index[e.src] for e in edges]
        self.edst = [index[e.dst] for e in edges]
        self.delay = [edge_delay(e, graph, machine) for e in edges]
        self.edist = [e.distance for e in edges]
        self.max_delay = max(self.delay, default=0)
        self._dist = [0] * len(self.uids)
        self._pred = [-1] * len(self.uids)


def _relax_pred(arrays: GraphArrays, ii: int) -> tuple[list[int], int]:
    """Bellman-Ford longest-path relaxation under weights
    ``delay - ii*distance``, tracking, per dense node index, the index of
    the edge that last relaxed it (``-1`` = never relaxed).  Returns
    ``(pred, witness)``: ``witness`` is a dense node index that still
    relaxed on the |V|-th round — the positive-cycle witness — or ``-1``
    when no positive cycle exists.

    Distances and predecessors live in the arrays' preallocated scratch;
    the only per-call allocation is the II-weighted edge table."""
    dist = arrays._dist
    pred = arrays._pred
    n = len(dist)
    for i in range(n):
        dist[i] = 0
        pred[i] = -1
    weights = [
        (j, s, d, dl - ii * di)
        for j, (s, d, dl, di) in enumerate(
            zip(arrays.esrc, arrays.edst, arrays.delay, arrays.edist)
        )
    ]
    m = len(weights)
    witness = -1
    relaxations = 0
    rounds = 0
    try:
        for _ in range(n):
            rounds += 1
            changed = False
            for j, s, d, w in weights:
                nd = dist[s] + w
                if nd > dist[d]:
                    dist[d] = nd
                    pred[d] = j
                    changed = True
                    witness = d
                    relaxations += 1
            if not changed:
                return pred, -1
        return pred, witness
    finally:
        rec = active_recorder()
        if rec is not None:
            rec.count("mii.bf_runs")
            rec.count("mii.bf_relaxations", relaxations)
            rec.count("mii.bf_edges_scanned", rounds * m)


def _extract_cycle_edges(arrays: GraphArrays, ii: int) -> list[int]:
    """The edges of one positive-weight cycle at ``ii``, as indices into
    ``arrays.edges`` (empty when no such cycle exists).  The witness of
    the final relaxation round is walked back |V| predecessor steps to
    land inside the cycle, then the cycle is collected."""
    pred, witness = _relax_pred(arrays, ii)
    if witness < 0:
        return []
    esrc = arrays.esrc
    node = witness
    for _ in range(len(arrays.uids)):
        node = esrc[pred[node]]
    cycle: list[int] = []
    cur = node
    for _ in range(len(arrays.uids) + 1):
        j = pred[cur]
        cycle.append(j)
        cur = esrc[j]
        if cur == node:
            break
    cycle.reverse()
    return cycle


def res_mii(loop: Loop, machine: MachineDescription) -> ResMII:
    """Resource-constrained minimum II of a (transformed) loop body: one
    BIN-PACK of every operation's reservation, fewest placement
    alternatives first (a stable sort, so ties keep body order)."""
    steps = []
    for op in loop.body:
        info = machine.opcode_info(op)
        plan = machine.reservation_spec(info)
        steps.append((placement_freedom(machine, info), ("op", op.uid), plan))
    steps.sort(key=itemgetter(0))
    bins = Bins(machine)
    bins.replay([(key, plan) for _, key, plan in steps])
    high = bins.high_water_mark()
    pressure = bins.weights
    bottleneck = None
    if high > 0:
        bottleneck = min(inst for inst, w in pressure.items() if w == high)
    return ResMII(max(1, high), pressure=pressure, bottleneck=bottleneck)


def rec_mii(
    graph: DependenceGraph,
    machine: MachineDescription,
    arrays: GraphArrays | None = None,
) -> RecMII:
    """Recurrence-constrained minimum II, carrying the critical cycle.

    Cycle-ratio iteration: a positive cycle at ``ii`` needs an II of at
    least its ``ceil(delay / distance)``, which exceeds ``ii``, so from
    ``ii = 1`` each cycle found raises ``ii`` to that lower bound until
    no positive cycle is left.  The critical cycle is the one found one
    II below the bound."""
    if not graph.edges:
        return RecMII(1)
    if arrays is None:
        arrays = GraphArrays(graph, machine)
    edges, delay, edist = arrays.edges, arrays.delay, arrays.edist
    ii = 1
    while cycle := _extract_cycle_edges(arrays, ii):
        distance = sum(edist[j] for j in cycle)
        if distance == 0:
            # The loop body cycles on itself.  At ``hi`` every cycle that
            # carries a distance is non-positive, so the cycle reported is
            # a zero-distance one.
            hi = max(1, arrays.max_delay * len(graph.ops))
            raise DependenceCycleError(
                graph, [edges[j] for j in _extract_cycle_edges(arrays, hi)]
            )
        ii = -(-sum(delay[j] for j in cycle) // distance)
    if ii <= 1:
        return RecMII(1)
    # A cycle still positive one II below the bound achieves exactly
    # ceil(delay/distance) == ii: the critical recurrence.
    cycle = _extract_cycle_edges(arrays, ii - 1)
    return RecMII(
        ii,
        [edges[j] for j in cycle],
        sum(delay[j] for j in cycle),
        sum(edist[j] for j in cycle),
    )


def minimum_ii(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    arrays: GraphArrays | None = None,
) -> tuple[int, ResMII, RecMII]:
    """(MII, ResMII, RecMII)."""
    res = res_mii(loop, machine)
    rec = rec_mii(graph, machine, arrays)
    return max(res, rec), res, rec
