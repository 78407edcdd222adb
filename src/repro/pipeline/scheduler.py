"""Iterative modulo scheduling (Rau, HPL-94-115).

For each candidate II starting at MII = max(ResMII, RecMII), operations
are scheduled highest-priority-first (priority = height in the
II-weighted dependence graph).  Each operation is placed at the first
resource-feasible cycle among the II consecutive cycles from the earliest
start consistent with its scheduled predecessors; when none exists the
operation is force-placed, evicting resource conflicts and unscheduling
dependence violators.  A budget bounds the total number of placements;
exhausting it moves on to II+1.

The inner loop runs on flat state: :class:`_SchedulerState` remaps every
operation to a dense index once per loop (extending the graph's
:class:`~repro.pipeline.mii.GraphArrays` numbering with any body ops the
graph omits), so scheduled times, last-placement memory, and the ready
set are plain lists; dependence walks follow edge-index adjacency into
the shared edge arrays; and resource placement goes through the
reservation table's probe/commit tokens.  A placement never scans the
candidate cycles one by one: earliest fit probes ``estart`` and, only
when that fails, takes the first fitting cycle and its token from one
row-mask pass (``first_fit``); a jittered attempt draws from the fitting
cycles of one ``free_rows`` mask and probes only its pick.  So a
placement makes at most two probes, the second only when it is forced.
The schedule produced is bit-identical to the per-row scans'
(``tests/scheduler_spec.py``) and the original dict implementation's,
including ``times`` dict insertion order (the placement order list is
replayed last-occurrence-first) and the jitter variants' RNG draw
sequence (perturbations are applied in body order, choices drawn per
fitting-cycle count).

A schedule carries the instance binding its reservation table holds at
the end (``ModuloSchedule.instances``).  The final check verifies that
binding exactly, with no table, and ``--explain`` draws it.  Neither
re-binds the finished kernel: a greedy re-binding in issue order is not
exact for multi-cycle reservations on a class with several instances,
and can reject a valid schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.dependence.graph import DependenceGraph
from repro.ir.loop import Loop
from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription
from repro.observability.recorder import Recorder, active_recorder, maybe_span
from repro.pipeline.mii import GraphArrays, RecMII, ResMII, edge_delay, minimum_ii
from repro.pipeline.reservation import ModuloReservationTable


# The scheduling budget per II attempt is BUDGET_RATIO placements per
# operation (at least 40); IIs are tried up to MAX_II_FACTOR times the
# start II (at least 32 past it).
BUDGET_RATIO = 10
MAX_II_FACTOR = 4


class SchedulingError(Exception):
    """No modulo schedule found within the II / budget limits."""


@dataclass
class ModuloSchedule:
    """A modulo schedule for one loop body."""

    loop: Loop
    machine: MachineDescription
    ii: int
    times: dict[int, int]
    #: The instance each reservation holds (a flat index into
    #: ``machine.instance_layout()``), op by op in body order and use by
    #: use in reservation-spec order: the binding the scheduler's table
    #: chose, which ``_check_schedule`` verified.
    instances: tuple[int, ...]
    res_mii: int
    rec_mii: int
    attempts: int

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii)

    @property
    def stage_count(self) -> int:
        if not self.times:
            return 1
        return max(t // self.ii for t in self.times.values()) + 1

    def stage_of(self, uid: int) -> int:
        return self.times[uid] // self.ii

    def kernel_rows(self) -> list[list[tuple[Operation, int]]]:
        """Operations by kernel row: ``rows[c]`` lists (op, stage) pairs
        issued at kernel cycle ``c``."""
        rows: list[list[tuple[Operation, int]]] = [[] for _ in range(self.ii)]
        by_uid = {op.uid: op for op in self.loop.body}
        for uid, t in sorted(self.times.items(), key=lambda kv: kv[1]):
            rows[t % self.ii].append((by_uid[uid], t // self.ii))
        return rows


class _SchedulerState:
    """II-invariant flat scheduling state for one (loop, graph, machine).

    Shared by every II probe and restart variant of a loop's schedule
    search: the dense uid numbering (graph nodes first, then any body ops
    the graph omits), per-edge adjacency as edge-index lists in
    ``graph.edges`` order (matching the graph's own adjacency order), and
    each body op's resolved reservation spec.
    """

    __slots__ = (
        "loop",
        "graph",
        "machine",
        "arrays",
        "n",
        "uids",
        "index",
        "body_idx",
        "pos",
        "pred_e",
        "succ_e",
        "specs",
    )

    def __init__(
        self,
        loop: Loop,
        graph: DependenceGraph,
        machine: MachineDescription,
    ):
        self.loop = loop
        self.graph = graph
        self.machine = machine
        arrays = GraphArrays(graph, machine)
        self.arrays = arrays
        uids = list(arrays.uids)
        index = dict(arrays.index)
        for op in loop.body:
            if op.uid not in index:
                index[op.uid] = len(uids)
                uids.append(op.uid)
        self.uids = uids
        self.index = index
        self.n = len(uids)
        self.body_idx = [index[op.uid] for op in loop.body]
        pos = [-1] * self.n
        for p, i in enumerate(self.body_idx):
            pos[i] = p
        self.pos = pos
        pred_e: list[list[int]] = [[] for _ in range(self.n)]
        succ_e: list[list[int]] = [[] for _ in range(self.n)]
        for j in range(len(arrays.edges)):
            succ_e[arrays.esrc[j]].append(j)
            pred_e[arrays.edst[j]].append(j)
        self.pred_e = pred_e
        self.succ_e = succ_e
        specs: list[tuple[tuple[int, int, int], ...] | None] = [None] * self.n
        for op, i in zip(loop.body, self.body_idx):
            specs[i] = machine.reservation_spec(machine.opcode_info(op))
        self.specs = specs


def _heights_flat(state: _SchedulerState, ii: int) -> list[int]:
    """Longest path from each operation to any sink under II-adjusted
    weights — the scheduling priority, as a dense-index list.  Converges
    because MII rules out positive cycles."""
    arrays = state.arrays
    height = [0] * state.n
    weights = [
        (s, d, dl - ii * di)
        for s, d, dl, di in zip(
            arrays.esrc, arrays.edst, arrays.delay, arrays.edist
        )
    ]
    relaxations = 0
    # Relax to fixpoint (bounded by |V| rounds at a feasible II).
    for _ in range(len(state.loop.body)):
        changed = False
        for s, d, w in weights:
            candidate = height[d] + w
            if candidate > height[s]:
                height[s] = candidate
                changed = True
                relaxations += 1
        if not changed:
            break
    rec = active_recorder()
    if rec is not None:
        rec.count("sched.height_relaxations", relaxations)
    return height


def _heights(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    ii: int,
) -> dict[int, int]:
    """Dict-shaped view of :func:`_heights_flat` (the original public
    contract, kept for the oracle and standalone callers)."""
    state = _SchedulerState(loop, graph, machine)
    height = _heights_flat(state, ii)
    index = state.index
    return {op.uid: height[index[op.uid]] for op in loop.body}


def _try_schedule(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    ii: int,
    budget: int,
    jitter_seed: int | None,
    rec: Recorder | None,
    *,
    base_height: list[int],
    state: _SchedulerState,
) -> tuple[dict[int, int], tuple[int, ...]] | None:
    # The II-invariant state and the per-II un-jittered heights are
    # computed by the caller once and shared by the four restart
    # variants.
    height: list[float] = base_height
    rng = None
    if jitter_seed is not None:
        # Deterministic perturbation: tight kernels (every issue slot
        # full) sometimes defeat the pure height order and earliest-fit
        # placement, and a different exploration order finds the
        # schedule.  Rau's iterative scheme is a heuristic; randomized
        # restarts are the standard remedy.  Draws happen in body order.
        import random

        rng = random.Random(jitter_seed)
        height = list(base_height)
        for i in state.body_idx:
            height[i] += rng.random() * 2.0

    arrays = state.arrays
    esrc, edst = arrays.esrc, arrays.edst
    delay, edist = arrays.delay, arrays.edist
    pred_e, succ_e = state.pred_e, state.succ_e
    specs = state.specs
    pos = state.pos
    n = state.n

    times = [-1] * n  # -1 = unscheduled
    last_time: list[int | None] = [None] * n
    order: list[int] = []  # placement order, for dict-order replay
    mrt = ModuloReservationTable(machine, ii)
    probe, first_fit, free_rows = mrt.probe_spec, mrt.first_fit, mrt.free_rows
    full = mrt.full_mask
    placements = 0
    evictions = 0

    # Max-heap on (height, reverse body order).
    ready = [(-height[i], pos[i], i) for i in state.body_idx]
    heapq.heapify(ready)
    in_queue = bytearray(n)
    for i in state.body_idx:
        in_queue[i] = 1

    def push(i: int) -> None:
        if not in_queue[i]:
            heapq.heappush(ready, (-height[i], pos[i], i))
            in_queue[i] = 1

    while ready:
        if budget <= 0:
            if rec is not None:
                rec.count("sched.budget_exhausted")
                rec.count("sched.placements", placements)
                rec.count("sched.evictions", evictions)
            return None
        budget -= 1
        placements += 1
        _, _, i = heapq.heappop(ready)
        in_queue[i] = 0

        estart = 0
        for j in pred_e[i]:
            s = esrc[j]
            if s == i:
                continue
            ts = times[s]
            if ts < 0:
                continue
            bound = ts + delay[j] - ii * edist[j]
            if bound > estart:
                estart = bound

        spec = specs[i]
        placed_at = estart
        if rng is None:
            # Earliest fit.  Most placements fit at estart; for the rest
            # one row-mask pass finds the first fitting cycle after it,
            # and its token.
            token = probe(spec, estart)
            if token is None:
                fit = first_fit(spec, estart)
                if fit is not None:
                    placed_at, token = fit
        else:
            # Jittered attempts sometimes pick a later fitting cycle,
            # which reaches schedules where an issue row must be left
            # open for a not-yet-scheduled operation.  They draw from the
            # ascending fitting cycles in [estart, estart + II), bit k of
            # ``ahead`` standing for estart + k, and probe only the pick.
            token = None
            rows = free_rows(spec)
            if rows:
                shift = estart % ii
                ahead = ((rows >> shift) | (rows << (ii - shift))) & full
                fitting = ahead.bit_count()
                pick = 0
                if fitting > 1 and rng.random() < 0.5:
                    pick = rng.choice(range(fitting))
                for _ in range(pick):
                    ahead &= ahead - 1  # drop the earliest fitting cycle
                placed_at = estart + (ahead & -ahead).bit_length() - 1
                token = probe(spec, placed_at)
        if token is not None:
            mrt.commit(i, token)
        else:
            # Force placement, evicting conflicts (Rau's scheme: never
            # retry the exact same slot for this op).
            t = estart
            lt = last_time[i]
            if lt is not None and t <= lt:
                t = lt + 1
            evicted = mrt.conflicting_spec(spec, t)
            for v in evicted:
                mrt.remove(v)
            token = probe(spec, t)
            if token is None:
                raise ValueError(f"no free resources at cycle {t}")
            mrt.commit(i, token)
            for v in evicted:
                times[v] = -1
                push(v)
                evictions += 1
            placed_at = t

        times[i] = placed_at
        last_time[i] = placed_at
        order.append(i)

        # Unschedule any scheduled successor whose dependence is now
        # violated.  No predecessor can be: every placement, forced or
        # not, lands at or after estart, which bounds them all.
        for j in succ_e[i]:
            d = edst[j]
            if d == i:
                continue
            td = times[d]
            if td < 0:
                continue
            if td < placed_at + delay[j] - ii * edist[j]:
                mrt.remove(d)
                times[d] = -1
                push(d)
                evictions += 1

    if rec is not None:
        rec.count("sched.placements", placements)
        rec.count("sched.evictions", evictions)
    if sum(1 for i in state.body_idx if times[i] >= 0) != len(state.body_idx):
        return None
    # Replay placement order so the returned dict's insertion order is
    # the one the incremental build produced (each placement re-inserted
    # its key at the end; only the last placement of a key survives).
    uids = state.uids
    last_seen: list[int] = []
    seen = bytearray(n)
    for i in reversed(order):
        if times[i] >= 0 and not seen[i]:
            seen[i] = 1
            last_seen.append(i)
    held = mrt.held
    instances = tuple(k for i in state.body_idx for k, _, _, _ in held[i])
    return {uids[i]: times[i] for i in reversed(last_seen)}, instances


def modulo_schedule(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    min_ii: int | None = None,
) -> ModuloSchedule:
    """Schedule a loop body, trying successive IIs from MII upward.

    ``min_ii`` lets callers impose an external lower bound (e.g. a retry
    after register allocation failed at the previous II).
    """
    if not loop.body:
        raise SchedulingError(f"loop {loop.name!r} has an empty body")
    recorder = active_recorder()
    with maybe_span(recorder, "modulo_schedule", loop=loop.name):
        # II-invariant scheduling state (dense numbering, edge arrays,
        # adjacency, reservation specs), shared by every II probe and
        # restart variant — and by the MII bound computation.
        state = _SchedulerState(loop, graph, machine)
        mii, res, rec = minimum_ii(loop, graph, machine, arrays=state.arrays)
        start = max(mii, min_ii or 1)
        budget = max(BUDGET_RATIO * len(loop.body), 40)
        max_ii = max(start * MAX_II_FACTOR, start + 32)

        if recorder is not None:
            _remark_mii_bound(recorder, loop, graph, res, rec, start, min_ii)

        attempts = 0
        for ii in range(start, max_ii + 1):
            base_height = _heights_flat(state, ii)
            for variant in (None, 1, 2, 3):
                attempts += 1
                found = _try_schedule(
                    loop,
                    graph,
                    machine,
                    ii,
                    budget,
                    variant,
                    recorder,
                    base_height=base_height,
                    state=state,
                )
                if found is None and variant == 3 and recorder is not None:
                    # All restart variants failed at this II: record what
                    # blocked it (at the bound it is the bound itself;
                    # above it, the placement budget).
                    recorder.remark(
                        "scheduler",
                        loop.name,
                        "ii-rejected",
                        f"II={ii} infeasible within placement budget "
                        f"{budget} (4 restart variants)",
                        ii=ii,
                        budget=budget,
                        at_bound=ii == mii,
                    )
                if found is not None:
                    times, instances = found
                    _check_schedule(
                        loop, graph, machine, ii, times, instances, state.arrays.delay
                    )
                    if recorder is not None:
                        recorder.count("sched.loops_scheduled")
                        recorder.count("sched.ii_attempts", attempts)
                        slack = ii - mii
                        recorder.remark(
                            "scheduler",
                            loop.name,
                            "scheduled",
                            f"II={ii} achieved"
                            + (
                                " at the MII bound"
                                if slack == 0
                                else f", {slack} above MII={mii}"
                            )
                            + f" ({attempts} attempts)",
                            ii=ii,
                            mii=mii,
                            res_mii=res,
                            rec_mii=rec,
                            attempts=attempts,
                            variant=variant,
                        )
                    return ModuloSchedule(
                        loop=loop,
                        machine=machine,
                        ii=ii,
                        times=times,
                        instances=instances,
                        res_mii=res,
                        rec_mii=rec,
                        attempts=attempts,
                    )
        if recorder is not None:
            recorder.count("sched.ii_attempts", attempts)
        raise SchedulingError(
            f"no schedule for {loop.name!r} with II in [{start}, {max_ii}]"
        )


def _remark_mii_bound(
    recorder: Recorder,
    loop: Loop,
    graph: DependenceGraph,
    res: ResMII,
    rec: RecMII,
    start: int,
    min_ii: int | None,
) -> None:
    """Remark on which bound pins the starting II: the bottleneck resource
    (ResMII), the critical recurrence cycle (RecMII), or an external floor
    (register-pressure retry)."""
    if min_ii is not None and start == min_ii and min_ii > max(res, rec):
        recorder.remark(
            "scheduler",
            loop.name,
            "external-floor",
            f"II search starts at {start}, imposed by the caller "
            f"(register-pressure retry), above MII={max(res, rec)}",
            start=start,
            res_mii=int(res),
            rec_mii=int(rec),
        )
        return
    data = {
        "res_mii": int(res),
        "rec_mii": int(rec),
        "bottleneck": res.bottleneck,
        "pressure": dict(res.pressure),
        "cycle": list(rec.cycle),
        "cycle_delay": rec.cycle_delay,
        "cycle_distance": rec.cycle_distance,
    }
    if res >= rec:
        recorder.remark(
            "scheduler",
            loop.name,
            "res-bound",
            f"MII={max(res, rec)} is resource-bound: {res.bottleneck} "
            f"carries {res.pressure.get(res.bottleneck, 0)} busy cycles "
            f"(RecMII={int(rec)})",
            **data,
        )
    else:
        recorder.remark(
            "scheduler",
            loop.name,
            "rec-bound",
            f"MII={int(rec)} is recurrence-bound: cycle "
            f"{rec.describe_cycle(graph)} carries delay {rec.cycle_delay} "
            f"over distance {rec.cycle_distance} (ResMII={int(res)})",
            **data,
        )


def _check_schedule(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    ii: int,
    times: dict[int, int],
    instances: tuple[int, ...],
    delays: list[int] | None = None,
) -> None:
    """Validate dependence and resource feasibility of a finished schedule.

    ``delays`` holds each edge's delay in ``graph.edges`` order, and
    ``instances`` the instance binding (see :class:`ModuloSchedule`).
    Every edge is checked, then every bound reservation: its instance
    must belong to the use's class, and its rows, rotated to the op's
    kernel row, must overlap none bound to that instance before it."""
    if delays is None:
        delays = [edge_delay(e, graph, machine) for e in graph.edges]
    for edge, delay in zip(graph.edges, delays):
        if times[edge.dst] + ii * edge.distance < times[edge.src] + delay:
            raise SchedulingError(
                f"schedule violates {edge} in {loop.name!r} (ii={ii})"
            )
    busy = [0] * len(machine.instance_layout()[0])
    full = (1 << ii) - 1
    k = 0
    for op in loop.body:
        t = times[op.uid]
        for first, count, cycles in machine.reservation_spec(machine.opcode_info(op)):
            if k == len(instances):
                raise SchedulingError(f"no instance bound for a use of {op}")
            i = instances[k]
            k += 1
            if not first <= i < first + count:
                raise SchedulingError(f"instance {i} is outside a class {op} uses")
            rows = ((1 << cycles) - 1) << (t % ii)
            rows = (rows | rows >> ii) & full
            if cycles > ii or busy[i] & rows:
                raise SchedulingError(f"resource overflow at cycle {t} for {op}")
            busy[i] |= rows
    if k != len(instances):
        raise SchedulingError(
            f"{len(instances) - k} instance(s) bound past the last use in {loop.name!r}"
        )
