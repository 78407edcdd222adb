"""Selective vectorization partitioning (paper Figure 2).

Divides a loop's vectorizable operations between a scalar and a vector
partition using Kernighan and Lin's two-cluster heuristic.  The cost of a
configuration is the high-water mark of the resource bins — the ResMII of
the loop that will be modulo scheduled — with each scalar operation binned
``VL`` times to match the work output of one vector operation, explicit
scalar<->vector communication binned as a consequence of the partition
(one transfer per operand), and realignment merges charged to misaligned
vector memory references.

The algorithm is iterative: every iteration repositions each vectorizable
operation exactly once (greedily choosing, at each step, the unlocked
operation whose move yields the cheapest configuration — moves may
*increase* cost mid-iteration), remembers the best configuration seen,
and restarts from it.  It terminates when an iteration fails to improve
on its starting configuration.  A cost probe releases only the moved
operation's resources and the transfers it touches and reserves its
other side, exactly as ``TEST-REPARTITION`` prescribes.  ``BIN-PACK``
runs from scratch once per loop, on the all-scalar start; every later
configuration (each iteration's restart from the best one, and the state
after every move) resumes that pack instead.

Fast-path engineering (behavior-preserving — every optimization below
reproduces the original trajectory bit-for-bit):

* the cost model resolves each (operation, side) and each (transfer,
  direction) once into a memoized ``BIN-PACK`` step, a reservation key
  plus a flat plan of ``(first instance, count, cycles)`` triples, so
  packing and probing index the flat bins (:mod:`repro.vectorize.bins`)
  and never rehash opcodes, transfers or sides;
* a probe is one :meth:`Bins.probe`, which releases and re-reserves on a
  copy of the loads, so the live bins are never written or undone per
  ``TEST-REPARTITION``;
* ``FIND-OP-TO-SWITCH`` needs a probe's exact cost only when it beats
  the best probe so far, so it passes that incumbent as the probe's
  bound: the copy's high-water mark never falls as uses are reserved,
  and the probe stops once it reaches the bound (before placing anything
  when the released loads already do).  The probe's plans are resolved
  only as the pack draws them, so a stopped probe never builds the rest.
  A stopped probe returns a value ``>= bound`` and an unstopped one its
  exact cost, so the comparison ``probe < best`` decides as before;
* every move re-packs only the *suffix* of the deterministic
  ``BIN-PACK`` reservation sequence that the flip invalidates
  (:class:`IncrementalPacker`): the bins roll back to the snapshot mark
  taken before the first changed step and replay from there, which
  yields a state identical to a from-scratch ``BIN-PACK`` of the flipped
  assignment;
* an iteration ends once its :class:`ClassFloor` reaches the best cost.
  Every configuration the rest of the iteration reaches keeps the
  locked operations' sides, and the floor (the branch-and-bound
  oracle's lower bound) is at most the cost of each of them; a move is
  accepted only below the best cost, so the moves left could change
  nothing but the effort counters.  The floor is checked before the
  iteration's first re-pack and before every move, and each moved
  operation is decided into it.

Set ``REPRO_KL_VERIFY=1`` to check all three at runtime without moving
an effort counter: each bounded probe against an uncounted exact probe,
the resumed pack's full state (weights and ledger) and cost against an
uncounted reference pack after every move, and the iteration's floor
against the cost of every pack.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from math import inf
from operator import itemgetter

from repro.dependence.analysis import LoopDependence
from repro.ir.operations import Operation, OpKind
from repro.machine.machine import MachineDescription
from repro.machine.resources import OpcodeInfo
from repro.observability.effort import PARTITION_EFFORT
from repro.vectorize.alignment import merge_overhead_opcodes
from repro.vectorize.bins import Bins, Mark, Plan, placement_freedom
from repro.vectorize.communication import (
    Dataflow,
    Side,
    Transfer,
    dataflow_of,
    transfer_cost_opcodes,
    transfer_keys_touching,
)


@dataclass(frozen=True)
class PartitionConfig:
    """Partitioner knobs.

    ``account_communication=False`` reproduces the Table 4 ablation: the
    cost model ignores transfer operations during partitioning (they are
    still inserted by the transformer for correctness).
    ``account_alignment=False`` likewise blinds the cost model to
    realignment merges.  ``max_iterations`` artificially limits the number
    of Kernighan-Lin iterations (the paper notes this option; ``None``
    runs to convergence).
    """

    account_communication: bool = True
    account_alignment: bool = True
    max_iterations: int | None = None
    balanced_bin_packing: bool = True


@dataclass
class PartitionResult:
    """Outcome of partitioning one loop."""

    assignment: dict[int, Side]
    cost: int
    scalar_cost: int
    iterations: int
    history: list[int] = field(default_factory=list)
    # Search-effort telemetry: moves actually performed, configurations
    # that improved the best cost, TEST-REPARTITION probes, and full
    # BIN-PACK invocations.
    moves: int = 0
    moves_accepted: int = 0
    n_probes: int = 0
    n_bin_packs: int = 0
    n_repacks: int = 0
    n_pack_steps: int = 0

    @property
    def vectorized(self) -> set[int]:
        return {uid for uid, side in self.assignment.items() if side is Side.VECTOR}

    @property
    def any_vectorized(self) -> bool:
        return bool(self.vectorized)


class _TransferSite:
    """One operand that can cross partitions: its producer (``None`` for
    a carried scalar, which only ever crosses to the vector side), its
    consumers, and the memoized ``BIN-PACK`` step of each direction."""

    __slots__ = ("key", "ledger_key", "producer", "consumers", "dtype", "steps")

    def __init__(self, key, producer, consumers, dtype):
        self.key = key
        self.ledger_key = ("comm", key)
        self.producer = producer
        self.consumers = tuple(consumers)
        self.dtype = dtype
        # Indexed by ``to_vector``: None until resolved, then the step, or
        # () when the transfer costs nothing.
        self.steps: list = [None, None]


def _transfer_sites(dataflow: Dataflow) -> list[_TransferSite]:
    """Every operand that can cross, in :func:`transfers_for` order."""
    sites = [
        _TransferSite(producer, producer, consumers, dataflow.producer_dtype[producer])
        for producer, consumers in dataflow.consumers.items()
        if consumers
    ]
    for entry, consumers in dataflow.carried_consumers.items():
        if entry not in dataflow.constant_carried:
            sites.append(_TransferSite(("carried", entry.name), None, consumers, entry.type))
    return sites


class PartitionCostModel:
    """Maps (operation, side) and transfers to machine opcodes, and each
    to the memoized ``BIN-PACK`` step that reserves them: a
    ``(reservation key, plan)`` pair over the flat instance layout."""

    def __init__(
        self,
        dep: LoopDependence,
        machine: MachineDescription,
        config: PartitionConfig,
    ):
        self.dep = dep
        self.machine = machine
        self.config = config
        self.dataflow: Dataflow = dataflow_of(dep)
        body = dep.loop.body
        # Touch keys in one fixed order, never set order: producers in
        # body order, then carried scalars.
        order = [*self.dataflow.consumers]
        order += [("carried", entry.name) for entry in self.dataflow.carried_consumers]
        self.touch_keys: dict[int, tuple[object, ...]] = {}
        for op in body:
            keys = transfer_keys_touching(self.dataflow, op)
            self.touch_keys[op.uid] = tuple(k for k in order if k in keys)
        # Plain-int work counters (always on — an increment is cheaper
        # than any guard); surfaced through PartitionResult and, when a
        # recorder is active, the kl.* counters.
        self.n_bin_packs = 0
        self.n_probes = 0
        self.n_repacks = 0
        self.n_pack_steps = 0
        self._index = {op.uid: i for i, op in enumerate(body)}
        self._op_keys = [("op", op.uid) for op in body]
        # Per dense op index, indexed by ``side is Side.VECTOR``: None
        # until resolved, then ``(step, freedom, opcodes)``.  One step
        # object per (op, side) lets pack sequences compare by identity.
        self._op_memo: list[list] = [[None, None] for _ in body]
        self._transfer_memo: dict[Transfer, tuple[OpcodeInfo, ...]] = {}
        self._overhead_memo: tuple[OpcodeInfo, ...] | None = None
        self._sites = _transfer_sites(self.dataflow)
        by_key = {site.key: site for site in self._sites}
        # Per dense op index: the sites a flip of the op can change.
        self._touch_sites = [
            tuple(by_key[k] for k in self.touch_keys[op.uid] if k in by_key)
            for op in body
        ]
        # Per dense op index: the keys a flip of the op releases.
        self._probe_keys = [
            (op_key, *(site.ledger_key for site in sites))
            for op_key, sites in zip(self._op_keys, self._touch_sites)
        ]
        self._overhead_steps = [
            (("overhead", i), self.plan_for((info,)))
            for i, info in enumerate(self.overhead_opcodes())
        ]

    def plan_for(self, opcodes) -> Plan:
        """The flat plan that reserves ``opcodes`` in order."""
        spec = self.machine.reservation_spec
        return tuple(use for info in opcodes for use in spec(info))

    def _op_entry(self, i: int, vector: bool) -> tuple:
        """``(step, freedom, opcodes)`` of body op ``i`` on one side."""
        entry = self._op_memo[i][vector]
        if entry is None:
            op = self.dep.loop.body[i]
            opcodes = self._select_op_opcodes(op, Side.VECTOR if vector else Side.SCALAR)
            # Bin-pack ordering key: fewest placement alternatives first.
            freedom = min(placement_freedom(self.machine, info) for info in opcodes)
            step = (self._op_keys[i], self.plan_for(opcodes))
            entry = self._op_memo[i][vector] = (step, freedom, opcodes)
        return entry

    def op_opcodes(self, op: Operation, side: Side) -> tuple[OpcodeInfo, ...]:
        return self._op_entry(self._index[op.uid], side is Side.VECTOR)[2]

    def op_step(self, op: Operation, side: Side) -> tuple[object, Plan]:
        """The ``(reservation key, plan)`` step that bins ``op`` on ``side``."""
        return self._op_entry(self._index[op.uid], side is Side.VECTOR)[0]

    def _select_op_opcodes(self, op: Operation, side: Side) -> tuple[OpcodeInfo, ...]:
        if side is Side.SCALAR:
            info = self.machine.opcode_info_for(op.kind, op.dtype, False)
            return (info,) * self.machine.vector_length
        infos = [self.machine.opcode_info_for(op.kind, op.dtype, True)]
        if op.kind.is_memory and self.config.account_alignment:
            infos.extend(merge_overhead_opcodes(self.machine, self.dep.loop, op))
        return tuple(infos)

    def overhead_opcodes(self) -> tuple[OpcodeInfo, ...]:
        """Loop control and addressing work, constant across partitions:
        one pointer bump per distinct array, one induction-variable
        increment, one compare-and-branch."""
        if self._overhead_memo is not None:
            return self._overhead_memo
        machine = self.machine
        from repro.ir.types import ScalarType

        infos: list[OpcodeInfo] = []
        if machine.model_loop_overhead:
            arrays = {
                op.array
                for op in self.dep.loop.body
                if op.kind.is_memory and op.array is not None
            }
            bump = machine.opcode_info_for(OpKind.BUMP, ScalarType.I64, False)
            infos.extend([bump] * len(arrays))
            infos.append(machine.opcode_info_for(OpKind.IVINC, ScalarType.I64, False))
            infos.append(machine.opcode_info_for(OpKind.CBR, ScalarType.I64, False))
        self._overhead_memo = tuple(infos)
        return self._overhead_memo

    def transfer_opcodes(self, transfer: Transfer) -> tuple[OpcodeInfo, ...]:
        if not self.config.account_communication:
            return ()
        opcodes = self._transfer_memo.get(transfer)
        if opcodes is None:
            opcodes = self._transfer_memo[transfer] = tuple(
                transfer_cost_opcodes(self.machine, transfer)
            )
        return opcodes

    def _transfer_step(self, site: _TransferSite, assignment: dict[int, Side]):
        """The step of ``site``'s transfer under ``assignment``; falsy
        when the operand does not cross or crossing costs nothing."""
        if site.producer is None:
            for c in site.consumers:
                if assignment[c] is Side.VECTOR:
                    break
            else:
                return None
            to_vector = True
        else:
            side = assignment[site.producer]
            for c in site.consumers:
                if assignment[c] is not side:
                    break
            else:
                return None
            to_vector = side is Side.SCALAR
        step = site.steps[to_vector]
        if step is None:
            step = self._site_step(site, to_vector)
        return step

    def _site_step(self, site: _TransferSite, to_vector: bool):
        """The memoized step of ``site``'s transfer in one direction, or
        () when crossing costs nothing."""
        step = site.steps[to_vector]
        if step is None:
            opcodes = self.transfer_opcodes(Transfer(site.key, site.dtype, to_vector))
            step = site.steps[to_vector] = (
                (site.ledger_key, self.plan_for(opcodes)) if opcodes else ()
            )
        return step

    # ------------------------------------------------------------------

    def pack_sequence(self, assignment: dict[int, Side]) -> list[tuple[object, Plan]]:
        """The deterministic reservation sequence BIN-PACK performs for
        ``assignment``: operations with the fewest placement alternatives
        first (ties in body order), then partition-induced transfers, then
        loop overhead.  Each step is a memoized ``(reservation key,
        plan)``; the same step object reserves identically from identical
        bins, which is what lets :class:`IncrementalPacker` resume a pack
        mid-sequence."""
        entry = self._op_entry
        vector = Side.VECTOR
        entries = [
            entry(i, assignment[op.uid] is vector)
            for i, op in enumerate(self.dep.loop.body)
        ]
        entries.sort(key=itemgetter(1))  # freedom; stable, so ties keep body order
        steps = [e[0] for e in entries]
        for site in self._sites:
            step = self._transfer_step(site, assignment)
            if step:
                steps.append(step)
        steps.extend(self._overhead_steps)
        return steps

    def bin_pack(self, assignment: dict[int, Side]) -> Bins:
        """Full greedy bin-pack of the configuration (Figure 2, BIN-PACK)."""
        self.n_bin_packs += 1
        return self.uncounted_pack(assignment)

    def uncounted_pack(self, assignment: dict[int, Side]) -> Bins:
        """:meth:`bin_pack` without counting it: the self-check's
        reference pack must leave the effort counters alone."""
        bins = Bins(self.machine, balance_ties=self.config.balanced_bin_packing)
        bins.replay(self.pack_sequence(assignment))
        return bins

    def probe_cost(
        self,
        bins: Bins,
        assignment: dict[int, Side],
        op: Operation,
        bound: float = inf,
    ) -> int:
        """Cost of the configuration with ``op`` switched, without a full
        re-pack (Figure 2, TEST-REPARTITION): one :meth:`Bins.probe`
        releases the op and the transfers it touches and reserves its
        other side on a copy of the loads.  A cost below ``bound`` is
        exact; otherwise the probe may stop early and return any value
        ``>= bound``.  ``assignment`` is left unchanged."""
        self.n_probes += 1
        return self.uncounted_probe(bins, assignment, op, bound)

    def uncounted_probe(
        self,
        bins: Bins,
        assignment: dict[int, Side],
        op: Operation,
        bound: float = inf,
    ) -> int:
        """:meth:`probe_cost` without counting it: the self-check's exact
        reference probe must leave the effort counters alone."""
        i = self._index[op.uid]
        plans = self._probe_plans(i, op.uid, assignment)
        return bins.probe(self._probe_keys[i], plans, bound)

    def _probe_plans(
        self, i: int, uid: int, assignment: dict[int, Side]
    ) -> Iterator[Plan]:
        """The plans a flip of body op ``i`` reserves: its other side,
        then each touched transfer the flip makes cross, each resolved
        only when the probe's pack draws it.  The flip is written into
        ``assignment`` only while one transfer is resolved, never across
        a ``yield``."""
        old_side = assignment[uid]
        yield self._op_entry(i, old_side is Side.SCALAR)[0][1]
        new_side = old_side.flipped()
        for site in self._touch_sites[i]:
            assignment[uid] = new_side
            try:
                step = self._transfer_step(site, assignment)
            finally:
                assignment[uid] = old_side
            if step:
                yield step[1]


class IncrementalPacker:
    """A packed :class:`Bins` kept in lockstep with an assignment by
    resuming BIN-PACK mid-sequence instead of re-running it.

    The pack is replayed with a snapshot mark taken before each step.
    When the assignment changes, the new
    :meth:`PartitionCostModel.pack_sequence` is diffed against the packed
    one by step identity; the bins roll back to the mark of the first
    differing step and only the suffix is replayed.  Because a step's
    effect is a pure function of the bins state it is applied to, the
    result is identical — weights and ledger — to a from-scratch
    ``BIN-PACK`` of the new assignment, so the Kernighan-Lin trajectory
    is preserved exactly.
    """

    def __init__(self, model: PartitionCostModel, assignment: dict[int, Side]):
        self.model = model
        self.bins = Bins(
            model.machine, balance_ties=model.config.balanced_bin_packing
        )
        self.steps: list[tuple[object, Plan]] = []
        self.marks: list[Mark] = []
        model.n_bin_packs += 1
        self._extend(model.pack_sequence(assignment))

    def _extend(self, steps: list[tuple[object, Plan]]) -> None:
        self.bins.replay(steps, self.marks)
        self.steps += steps
        self.model.n_pack_steps += len(steps)

    def repack(self, assignment: dict[int, Side]) -> int:
        """Bring the bins to ``BIN-PACK(assignment)`` state; returns the
        configuration cost (high-water mark)."""
        self.model.n_repacks += 1
        new_steps = self.model.pack_sequence(assignment)
        steps = self.steps
        divergence = 0
        limit = min(len(steps), len(new_steps))
        while divergence < limit and steps[divergence] is new_steps[divergence]:
            divergence += 1
        if divergence < len(steps):
            self.bins.rollback(self.marks[divergence])
            del steps[divergence:]
            del self.marks[divergence:]
        if divergence < len(new_steps):
            self._extend(new_steps[divergence:])
        return self.bins.high_water_mark()


#: ``(class's first instance, busy cycles)`` pairs a decision adds.
Rise = tuple[tuple[int, int], ...]


def _class_cycles(plan: Plan) -> dict[int, int]:
    """Busy cycles per resource class, keyed by the class's first
    instance, over one plan."""
    cycles: dict[int, int] = {}
    for first, _, busy in plan:
        cycles[first] = cycles.get(first, 0) + busy
    return cycles


def _rise(side: dict[int, int], low: dict[int, int]) -> Rise:
    """The cycles ``side`` costs above ``low``, class by class."""
    return tuple(
        (first, busy - low.get(first, 0))
        for first, busy in side.items()
        if busy > low.get(first, 0)
    )


class ClassFloor:
    """A lower bound on the cost of every configuration that keeps the
    decided operations' sides, with every other candidate on either side.

    Per resource class it sums the busy cycles of the decided operations
    (those that cannot vectorize, the loop overhead, and each candidate
    passed to :meth:`decide`), of every transfer those sides already
    force, and of each undecided candidate's cheaper side, all read from
    the cost model's memoized plans.  :meth:`bound` is
    ``max_c ceil(total_c / count_c)``.  It is admissible: ``BIN-PACK``
    places each use on one instance of its class, so its high-water mark
    is at least any class's average load; every completion reserves at
    least the counted cycles, and transfers only add work.

    Deciding a candidate never lowers a class total (a side costs at
    least the cheaper side, per class), so the bound only rises as
    decisions are made; :meth:`undo` drops the newest decision, and
    :meth:`reset` all of them.  Kernighan-Lin decides each operation it
    locks, and the branch-and-bound oracle each one it branches on.
    """

    def __init__(self, model: PartitionCostModel, candidates: list[Operation]):
        self.model = model
        names, spans = model.machine.instance_layout()
        # Class totals and instance counts, indexed by each class's first
        # instance.
        total = [0] * len(names)
        self._count = [1] * len(names)
        for first, count in spans.values():
            self._count[first] = count
        undecided = {op.uid for op in candidates}
        pinned: dict[int, Side] = {}
        # Per candidate, indexed by ``side is Side.VECTOR``: the cycles
        # deciding that side adds to each class above the cheaper side.
        self._rise: dict[int, tuple[Rise, Rise]] = {}
        self._sites: dict[int, tuple[_TransferSite, ...]] = {}
        for i, op in enumerate(model.dep.loop.body):
            scalar = _class_cycles(model._op_entry(i, False)[0][1])
            if op.uid not in undecided:
                pinned[op.uid] = Side.SCALAR
                low = scalar
            else:
                vector = _class_cycles(model._op_entry(i, True)[0][1])
                low = {f: min(busy, vector[f]) for f, busy in scalar.items() if f in vector}
                self._rise[op.uid] = (_rise(scalar, low), _rise(vector, low))
                self._sites[op.uid] = model._touch_sites[i]
            for first, busy in low.items():
                total[first] += busy
        for _, plan in model._overhead_steps:
            for first, busy in _class_cycles(plan).items():
                total[first] += busy
        # Per (transfer key, direction): the cycles the forced transfer adds.
        self._transfer_rise: dict[tuple[object, bool], Rise] = {}
        bound = max(-(-load // count) for load, count in zip(total, self._count))
        self._base = (total, pinned, bound)
        self.reset()

    def reset(self) -> None:
        """Undo every decision."""
        total, pinned, bound = self._base
        self._total = total.copy()
        #: The decided sides: every operation that cannot vectorize, then
        #: the decided candidates in decision order.
        self.side: dict[int, Side] = dict(pinned)
        self._bound = bound
        self._forced: set[object] = set()
        self._trail: list[tuple] = []

    def bound(self) -> int:
        """No configuration that keeps the decided sides costs less."""
        return self._bound

    def decide(self, op: Operation, side: Side) -> None:
        """Fix ``op``, an undecided candidate, on ``side``."""
        uid = op.uid
        self.side[uid] = side
        old = self._bound
        rise = self._rise[uid][side is Side.VECTOR]
        self._add(rise)
        forced = []
        for site in self._sites[uid]:
            if site.key in self._forced:
                continue
            to_vector = self._forced_direction(site)
            if to_vector is None:
                continue
            self._forced.add(site.key)
            transfer = self._transfer_rise.get((site.key, to_vector))
            if transfer is None:
                step = self.model._site_step(site, to_vector)
                transfer = tuple(_class_cycles(step[1]).items()) if step else ()
                self._transfer_rise[site.key, to_vector] = transfer
            self._add(transfer)
            forced.append((site.key, transfer))
        self._trail.append((uid, rise, forced, old))

    def undo(self) -> None:
        """Drop the newest decision."""
        uid, rise, forced, self._bound = self._trail.pop()
        del self.side[uid]
        total = self._total
        for first, busy in rise:
            total[first] -= busy
        for key, transfer in forced:
            self._forced.discard(key)
            for first, busy in transfer:
                total[first] -= busy

    def _add(self, rise: Rise) -> None:
        total, count, bound = self._total, self._count, self._bound
        for first, busy in rise:
            load = total[first] = total[first] + busy
            need = -(-load // count[first])
            if need > bound:
                bound = need
        self._bound = bound

    def _forced_direction(self, site: _TransferSite) -> bool | None:
        """``to_vector`` of the transfer the decided sides alone make
        ``site`` cross with, or ``None`` while they force none."""
        side = self.side
        if site.producer is None:
            for c in site.consumers:
                if side.get(c) is Side.VECTOR:
                    return True
            return None
        producer = side.get(site.producer)
        if producer is None:
            return None
        for c in site.consumers:
            consumer = side.get(c)
            if consumer is not None and consumer is not producer:
                return producer is Side.SCALAR
        return None


def partition_operations(
    dep: LoopDependence,
    machine: MachineDescription,
    config: PartitionConfig | None = None,
) -> PartitionResult:
    """Run the Figure 2 partitioner on an analyzed loop."""
    from repro.observability.recorder import active_recorder, maybe_span

    config = config or PartitionConfig()
    rec = active_recorder()
    with maybe_span(rec, "partition", loop=dep.loop.name):
        model = PartitionCostModel(dep, machine, config)
        body = dep.loop.body

        assignment: dict[int, Side] = {op.uid: Side.SCALAR for op in body}
        packer = IncrementalPacker(model, assignment)
        scalar_cost = packer.bins.high_water_mark()

        candidates = [op for op in body if dep.is_vectorizable(op)]
        if not candidates or not machine.supports_vectors:
            if rec is not None:
                rec.remark(
                    "partition",
                    dep.loop.name,
                    "all-scalar",
                    "no vectorizable operations"
                    if not candidates
                    else "machine has no vector units",
                    cost=scalar_cost,
                )
            return PartitionResult(
                assignment=assignment,
                cost=scalar_cost,
                scalar_cost=scalar_cost,
                iterations=0,
                history=[scalar_cost],
                n_bin_packs=model.n_bin_packs,
                n_pack_steps=model.n_pack_steps,
            )

        best_assignment = dict(assignment)
        best_cost = scalar_cost
        history = [scalar_cost]
        last_cost: float = float("inf")
        iterations = 0
        moves = 0
        moves_accepted = 0
        verify = os.environ.get("REPRO_KL_VERIFY", "") not in ("", "0")
        floor = ClassFloor(model, candidates)
        bins = packer.bins

        while last_cost != best_cost:
            if config.max_iterations is not None and iterations >= config.max_iterations:
                break
            last_cost = best_cost
            iterations += 1
            locked: set[int] = set()
            # Every configuration the rest of the iteration reaches keeps
            # the locked sides, so none costs less than the floor; once
            # that reaches the best cost, no move left can be accepted.
            floor.reset()
            if floor.bound() < best_cost:
                cost = packer.repack(assignment)
                if verify:
                    _verify_floor(model, floor, cost)

            for _ in range(len(candidates)):
                if floor.bound() >= best_cost:
                    break
                # FIND-OP-TO-SWITCH: cheapest probe among unlocked
                # candidates.  Only a probe below the best so far can
                # change the choice, so each probe is bounded by it.
                best_op: Operation | None = None
                best_probe: float = inf
                for op in candidates:
                    if op.uid in locked:
                        continue
                    probe = model.probe_cost(bins, assignment, op, best_probe)
                    if verify:
                        _verify_bounded_probe(
                            model, bins, assignment, op, best_probe, probe
                        )
                    if probe < best_probe:
                        best_probe = probe
                        best_op = op
                assert best_op is not None
                locked.add(best_op.uid)
                moves += 1
                assignment[best_op.uid] = assignment[best_op.uid].flipped()
                floor.decide(best_op, assignment[best_op.uid])
                # Resume BIN-PACK from the first invalidated reservation
                # in place of re-running it from scratch.
                cost = packer.repack(assignment)
                if verify:
                    reference = model.uncounted_pack(assignment)
                    if (
                        bins.load != reference.load
                        or bins.reservations != reference.reservations
                        or cost != max(reference.load)
                    ):
                        raise AssertionError(
                            "resumed pack state or cost diverged from "
                            f"reference bin-pack after moving op {best_op.uid} in "
                            f"loop {dep.loop.name!r}"
                        )
                    _verify_floor(model, floor, cost)
                if cost < best_cost:
                    best_cost = cost
                    best_assignment = dict(assignment)
                    moves_accepted += 1
            history.append(best_cost)
            assignment = dict(best_assignment)

        result = PartitionResult(
            assignment=best_assignment,
            cost=best_cost,
            scalar_cost=scalar_cost,
            iterations=iterations,
            history=history,
            moves=moves,
            moves_accepted=moves_accepted,
            n_probes=model.n_probes,
            n_bin_packs=model.n_bin_packs,
            n_repacks=model.n_repacks,
            n_pack_steps=model.n_pack_steps,
        )
        if verify and len(candidates) <= ORACLE_VERIFY_MAX_CANDIDATES:
            _oracle_second_witness(dep, machine, config, result)
        if rec is not None:
            rec.count("kl.loops_partitioned")
            rec.count("kl.moves_accepted", moves_accepted)
            for counter in PARTITION_EFFORT:
                rec.count(counter.recorder, getattr(result, counter.source))
            _emit_placement_remarks(rec, dep, machine, config, model, result)
        return result


def _verify_bounded_probe(model, bins, assignment, op, bound, probe) -> None:
    """Under ``REPRO_KL_VERIFY``, check a bounded probe against an
    uncounted exact one: equal below ``bound``, at least ``bound`` above."""
    exact = model.uncounted_probe(bins, assignment, op)
    if (probe != exact) if exact < bound else (probe < bound):
        raise AssertionError(
            f"bounded probe of op {op.uid} in loop {model.dep.loop.name!r} "
            f"returned {probe} under bound {bound}, but its exact cost is "
            f"{exact}"
        )


def _verify_floor(model, floor, cost) -> None:
    """Under ``REPRO_KL_VERIFY``, check the iteration's class floor
    against the cost just packed, a configuration it must not exceed."""
    if floor.bound() > cost:
        raise AssertionError(
            f"class floor {floor.bound()} exceeds the packed cost {cost} in "
            f"loop {model.dep.loop.name!r}"
        )


#: ``REPRO_KL_VERIFY`` second witness: loops with at most this many
#: candidate operations are re-solved exactly by the oracle each time.
ORACLE_VERIFY_MAX_CANDIDATES = 12


def _oracle_second_witness(dep, machine, config, result) -> None:
    """Cross-check the KL cost against the branch-and-bound oracle.

    Runs only under ``REPRO_KL_VERIFY=1`` on small loops.  The oracle is
    started *cold* (no incumbent): a corrupted incremental pack cost
    must not be allowed to prune away its own refutation.  A KL cost
    below the oracle's sound lower bound can only mean the
    incremental pack state diverged from a true bin-pack.
    """
    from repro.oracle import OracleBudget
    from repro.oracle.exact_partition import exact_partition

    oracle = exact_partition(
        dep,
        machine,
        config,
        budget=OracleBudget(max_nodes=50_000, max_seconds=2.0),
        incumbent=None,
    )
    if result.cost < oracle.lower_bound:
        raise AssertionError(
            f"KL cost {result.cost} beats the oracle lower bound "
            f"{oracle.lower_bound} in loop {dep.loop.name!r}: the "
            "incremental pack cost is not a real partition cost"
        )


def _emit_placement_remarks(
    rec,
    dep: LoopDependence,
    machine: MachineDescription,
    config: PartitionConfig,
    model: PartitionCostModel,
    result: PartitionResult,
) -> None:
    """One remark per operation explaining its scalar/vector placement.

    For a vectorizable operation left scalar, the reason code attributes
    the loss to the cost-model component that made vector placement
    unprofitable: re-probing the flip with the communication (then
    alignment) term blinded identifies which overhead tipped the balance;
    if the flip loses even with both blinded, the vector resources
    themselves are the bottleneck.
    """
    bins = model.bin_pack(result.assignment)
    assignment = dict(result.assignment)
    blind_comm = PartitionCostModel(
        dep, machine, replace(config, account_communication=False)
    )
    blind_align = PartitionCostModel(
        dep, machine, replace(config, account_alignment=False)
    )
    for op in dep.loop.body:
        side = result.assignment[op.uid]
        placement = "vector" if side is Side.VECTOR else "scalar"
        if not dep.is_vectorizable(op):
            rec.remark(
                "partition",
                dep.loop.name,
                "not-vectorizable",
                f"op {op.uid} ({op.mnemonic()}) is scalar: dependence "
                "analysis rules out vectorization",
                op=op.uid,
                placement="scalar",
            )
            continue
        flip = model.probe_cost(bins, assignment, op)
        delta = flip - result.cost
        if side is Side.VECTOR:
            rec.remark(
                "partition",
                dep.loop.name,
                "vector-profitable",
                f"op {op.uid} ({op.mnemonic()}) is vector: moving it back "
                f"to the scalar units would cost {flip} vs {result.cost}",
                op=op.uid,
                placement="vector",
                flip_cost=flip,
                cost=result.cost,
            )
            continue
        if delta <= 0:
            reason, why = "no-benefit", "gains nothing"
        elif (
            config.account_communication
            and blind_comm.probe_cost(bins, assignment, op) <= result.cost
        ):
            reason, why = (
                "communication-cost",
                "loses to the scalar<->vector transfers it would add",
            )
        elif (
            config.account_alignment
            and op.kind.is_memory
            and blind_align.probe_cost(bins, assignment, op) <= result.cost
        ):
            reason, why = (
                "alignment-merge",
                "loses to the realignment merges it would add",
            )
        else:
            reason, why = (
                "resource-pressure",
                "loses on vector-unit pressure",
            )
        rec.remark(
            "partition",
            dep.loop.name,
            reason,
            f"op {op.uid} ({op.mnemonic()}) stays scalar: vectorizing it "
            f"{why} (cost {result.cost} -> {flip})",
            op=op.uid,
            placement=placement,
            flip_cost=flip,
            cost=result.cost,
        )
