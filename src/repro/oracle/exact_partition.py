"""Branch-and-bound optimal scalar/vector partitioning.

The search optimizes *exactly* the partitioner's objective: the
high-water mark of :meth:`PartitionCostModel.bin_pack` — the ResMII of
the configuration, with communication and alignment overhead charged the
same way Figure 2 charges them.  A leaf is evaluated with the very same
``bin_pack`` the Kernighan-Lin heuristic uses, so "certified optimal"
means optimal over every assignment KL could have returned, under the
identical cost model.

Search structure:

* **Decisions** are the vectorizable operations (everything else is
  pinned scalar), ordered by descending resource weight so heavy
  commitments happen near the root where pruning pays most.
* **Lower bound** — the partitioner's
  :class:`~repro.vectorize.partition.ClassFloor`, the same floor that
  ends a Kernighan-Lin iteration early.  Each branch decides its op
  into the floor and backtracking undoes it.  Per resource class the
  floor counts the decided operations' cycles, every transfer already
  *forced* by decided sides (a producer and a crossing consumer both
  decided; a decided vector consumer of a non-constant carried scalar),
  and the cheaper side of each undecided operation; its bound
  ``max_c ceil(total_c / instances_c)`` is admissible because a greedy
  high-water mark can never undercut the per-class average, every
  completion reserves at least the counted cycles, and transfers only
  add work.
* **Dominance** — when the bound kills one side of a decision outright,
  the other side is taken without branching (counted in
  ``forced_moves``).
* **Symmetry** — interchangeable candidates (identical kind/dtype,
  identical opcode tuples on both sides, identical producer/consumer/
  carried context) whose resource classes carry only unit-cycle
  reservations are constrained to "vectorized members form a prefix":
  for such groups a side swap provably leaves the greedy pack's
  high-water mark unchanged, so one representative per orbit suffices.
  Groups touching any class with a multi-cycle (non-pipelined divide)
  reservation are left unpruned — there the greedy pack is order
  sensitive and the swap argument does not hold.
* **Budget** — the search charges one :class:`BudgetMeter` node per
  branch.  On exhaustion it returns status ``bounded``/``timeout`` with
  ``lower_bound = min(incumbent, bound of every abandoned subtree)``,
  which remains a true lower bound on the optimum.

``enumerate_partitions`` is the brute-force reference the property tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.dependence.analysis import LoopDependence
from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription
from repro.oracle import CERTIFIED, BudgetMeter, OracleBudget
from repro.vectorize.communication import Side, Transfer
from repro.vectorize.partition import (
    ClassFloor,
    PartitionConfig,
    PartitionCostModel,
    PartitionResult,
)


@dataclass
class PartitionOracleResult:
    """Outcome of one branch-and-bound partition search.

    ``status == "certified"`` means ``best_cost == lower_bound`` is the
    true minimum ResMII; otherwise the optimum lies in
    ``[lower_bound, best_cost]``.
    """

    status: str
    best_cost: int
    lower_bound: int
    assignment: dict[int, Side]
    candidates: int
    nodes: int
    leaves: int
    elapsed_s: float
    kl_cost: int | None = None
    pruned_bound: int = 0
    pruned_symmetry: int = 0
    forced_moves: int = 0

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def kl_gap(self) -> int | None:
        """How far the heuristic landed above the oracle's best (exact
        when certified, else an upper bound on the true gap)."""
        if self.kl_cost is None:
            return None
        return self.kl_cost - self.best_cost


# ----------------------------------------------------------------------
# Model-derived tables


def _possible_transfers(
    model: PartitionCostModel, key: object
) -> list[Transfer]:
    """Both directions a transfer of ``key`` could take (cost scanning)."""
    if isinstance(key, tuple) and key and key[0] == "carried":
        for entry in model.dataflow.carried_consumers:
            if entry.name == key[1]:
                return [Transfer(key=key, dtype=entry.type, to_vector=True)]
        return []
    dtype = model.dataflow.producer_dtype.get(key)
    if dtype is None:
        return []
    return [
        Transfer(key=key, dtype=dtype, to_vector=tv) for tv in (False, True)
    ]


def _multi_cycle_classes(model: PartitionCostModel) -> frozenset[str]:
    """Resource classes that any reservation in this loop's cost model
    can occupy for more than one cycle (non-pipelined divides): greedy
    packing into these is order sensitive, which voids the symmetry
    swap argument."""
    multi: set[str] = set()

    def scan(infos) -> None:
        for info in infos:
            for use in info.uses:
                if use.cycles > 1:
                    multi.add(use.resource)

    for op in model.dep.loop.body:
        scan(model.op_opcodes(op, Side.SCALAR))
        if model.dep.is_vectorizable(op):
            scan(model.op_opcodes(op, Side.VECTOR))
    scan(model.overhead_opcodes())
    for op in model.dep.loop.body:
        for key in model.touch_keys[op.uid]:
            for transfer in _possible_transfers(model, key):
                scan(model.transfer_opcodes(transfer))
    return frozenset(multi)


def _touched_classes(model: PartitionCostModel, op: Operation) -> set[str]:
    """Every resource class a repartition of ``op`` can load, on either
    side, including the transfers it can imply."""
    classes: set[str] = set()
    for side in (Side.SCALAR, Side.VECTOR):
        for info in model.op_opcodes(op, side):
            for use in info.uses:
                classes.add(use.resource)
    for key in model.touch_keys[op.uid]:
        for transfer in _possible_transfers(model, key):
            for info in model.transfer_opcodes(transfer):
                for use in info.uses:
                    classes.add(use.resource)
    return classes


def _symmetry_signature(model: PartitionCostModel, op: Operation):
    """Candidates with equal signatures are cost-interchangeable (given
    unit-cycle classes): same opcodes on both sides and the same operand
    environment, so swapping their sides permutes identical reservations."""
    dataflow = model.dataflow
    consumed = frozenset(
        p for p, consumers in dataflow.consumers.items() if op.uid in consumers
    )
    consumers = frozenset(dataflow.consumers.get(op.uid, ()))
    carried = frozenset(
        entry.name
        for entry, readers in dataflow.carried_consumers.items()
        if op.uid in readers
    )
    return (
        op.kind,
        op.dtype,
        model.op_opcodes(op, Side.SCALAR),
        model.op_opcodes(op, Side.VECTOR),
        consumed,
        consumers,
        carried,
        op.dest is not None,
    )


# ----------------------------------------------------------------------
# The search


def exact_partition(
    dep: LoopDependence,
    machine: MachineDescription,
    config: PartitionConfig | None = None,
    budget: OracleBudget | None = None,
    incumbent: PartitionResult | None = None,
) -> PartitionOracleResult:
    """Branch-and-bound over every scalar/vector assignment of ``dep``.

    ``incumbent`` (typically the KL result) warm-starts the upper bound
    and the branch order; pass ``None`` for a fully independent search
    (the second-witness self-check does, so a corrupt heuristic cost
    cannot steer its own verification).
    """
    from repro.observability.recorder import active_recorder

    config = config or PartitionConfig()
    budget = budget or OracleBudget()
    model = PartitionCostModel(dep, machine, config)
    body = dep.loop.body
    meter = BudgetMeter(budget)

    candidates = [
        op for op in body if machine.supports_vectors and dep.is_vectorizable(op)
    ]

    if not candidates:
        assignment = {op.uid: Side.SCALAR for op in body}
        cost = model.bin_pack(assignment).high_water_mark()
        return _finish(
            dep,
            PartitionOracleResult(
                status=CERTIFIED,
                best_cost=cost,
                lower_bound=cost,
                assignment=assignment,
                candidates=0,
                nodes=0,
                leaves=1,
                elapsed_s=meter.elapsed,
                kl_cost=incumbent.cost if incumbent else None,
            ),
        )

    # Decision order: heaviest resource footprint first.
    body_index = {op.uid: i for i, op in enumerate(body)}

    def footprint(op: Operation) -> int:
        return sum(
            busy
            for side in (Side.SCALAR, Side.VECTOR)
            for _, _, busy in model.op_step(op, side)[1]
        )

    order = sorted(candidates, key=lambda op: (-footprint(op), body_index[op.uid]))
    n = len(order)

    # Symmetry orbits: for each decision, the nearest earlier member of
    # its (sound) interchangeability group.
    multi_classes = _multi_cycle_classes(model)
    group_prev: list[int | None] = [None] * n
    last_member: dict[object, int] = {}
    for i, op in enumerate(order):
        if _touched_classes(model, op) & multi_classes:
            continue
        sig = _symmetry_signature(model, op)
        group_prev[i] = last_member.get(sig)
        last_member[sig] = i

    # Warm start.
    if incumbent is not None:
        best_assignment = dict(incumbent.assignment)
        best_cost = incumbent.cost
        side_pref = [
            (incumbent.assignment[op.uid], incumbent.assignment[op.uid].flipped())
            for op in order
        ]
    else:
        best_assignment = {op.uid: Side.SCALAR for op in body}
        best_cost = model.bin_pack(best_assignment).high_water_mark()
        side_pref = [(Side.SCALAR, Side.VECTOR)] * n

    # The lower bound: each branch decides its op into the class floor,
    # and backtracking undoes it.
    floor = ClassFloor(model, candidates)
    side_of = floor.side

    stats = {
        "leaves": 0,
        "pruned_bound": 0,
        "pruned_symmetry": 0,
        "forced_moves": 0,
    }
    abandon_lb: list[int] = []

    def search(depth: int) -> None:
        nonlocal best_cost, best_assignment
        if depth == n:
            stats["leaves"] += 1
            cost = model.bin_pack(side_of).high_water_mark()
            if cost < best_cost:
                best_cost = cost
                best_assignment = dict(side_of)
            return
        op = order[depth]
        prev = group_prev[depth]
        explored = pruned = 0
        for side in side_pref[depth]:
            if (
                side is Side.VECTOR
                and prev is not None
                and side_of[order[prev].uid] is Side.SCALAR
            ):
                # An equal-cost representative with the group's vector
                # members packed first is (or was) explored instead.
                stats["pruned_symmetry"] += 1
                continue
            if not meter.charge():
                abandon_lb.append(floor.bound())
                return
            floor.decide(op, side)
            if floor.bound() >= best_cost:
                stats["pruned_bound"] += 1
                pruned += 1
            else:
                explored += 1
                search(depth + 1)
            floor.undo()
            if meter.exhausted_by is not None:
                abandon_lb.append(floor.bound())
                return
        if explored == 1 and pruned == 1:
            stats["forced_moves"] += 1

    search(0)

    status = meter.status()
    if status == CERTIFIED:
        lower = best_cost
    else:
        lower = min([best_cost] + abandon_lb)
    result = PartitionOracleResult(
        status=status,
        best_cost=best_cost,
        lower_bound=lower,
        assignment=best_assignment,
        candidates=n,
        nodes=meter.nodes,
        leaves=stats["leaves"],
        elapsed_s=meter.elapsed,
        kl_cost=incumbent.cost if incumbent else None,
        pruned_bound=stats["pruned_bound"],
        pruned_symmetry=stats["pruned_symmetry"],
        forced_moves=stats["forced_moves"],
    )
    rec = active_recorder()
    if rec is not None:
        _record(rec, dep, result)
    return result


def _finish(dep: LoopDependence, result: PartitionOracleResult) -> PartitionOracleResult:
    from repro.observability.recorder import active_recorder

    rec = active_recorder()
    if rec is not None:
        _record(rec, dep, result)
    return result


def _record(rec, dep: LoopDependence, result: PartitionOracleResult) -> None:
    rec.count("oracle.partition_runs")
    rec.count("oracle.partition_nodes", result.nodes)
    rec.count("oracle.partition_leaves", result.leaves)
    rec.count("oracle.partition_pruned_bound", result.pruned_bound)
    rec.count("oracle.partition_pruned_symmetry", result.pruned_symmetry)
    rec.count(f"oracle.partition_{result.status}")


# ----------------------------------------------------------------------
# Brute force (the reference the property tests certify the search with)


def enumerate_partitions(
    dep: LoopDependence,
    machine: MachineDescription,
    config: PartitionConfig | None = None,
    max_candidates: int = 16,
) -> tuple[int, int]:
    """Exhaustively evaluate every assignment; returns
    ``(optimal cost, configurations evaluated)``."""
    config = config or PartitionConfig()
    model = PartitionCostModel(dep, machine, config)
    assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    candidates = (
        [op for op in dep.loop.body if dep.is_vectorizable(op)]
        if machine.supports_vectors
        else []
    )
    if len(candidates) > max_candidates:
        raise ValueError(
            f"{len(candidates)} candidates exceed the enumeration limit "
            f"of {max_candidates}"
        )
    best = model.bin_pack(assignment).high_water_mark()
    evaluated = 1
    for sides in product((Side.SCALAR, Side.VECTOR), repeat=len(candidates)):
        if all(s is Side.SCALAR for s in sides):
            continue
        for op, side in zip(candidates, sides):
            assignment[op.uid] = side
        cost = model.bin_pack(assignment).high_water_mark()
        evaluated += 1
        if cost < best:
            best = cost
    return best, evaluated
