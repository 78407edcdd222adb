"""Executable specification of the modulo scheduler's slot search.

This is the ``_try_schedule`` the row-mask search in
:mod:`repro.pipeline.scheduler` replaced, kept verbatim but for its
result, which also carries its table's instance binding: earliest fit
probes the reservation table at every cycle from ``estart`` until one
fits, a jittered attempt probes all II cycles to build its list of
fitting cycles and tokens before drawing from it, and a placement
unschedules any predecessor it violates (which never happens).
:func:`modulo_schedule` drives it through the same II search and final
check as the scheduler, without the recorder's remarks.
``tests/test_flat_kernels.py`` requires the scheduler's ``times``
(values and dict order), instance binding, II and attempt count to
equal this one's.
"""

from __future__ import annotations

import heapq

from repro.dependence.graph import DependenceGraph
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.observability.recorder import Recorder
from repro.pipeline.mii import minimum_ii
from repro.pipeline.reservation import ModuloReservationTable
from repro.pipeline.scheduler import (
    BUDGET_RATIO,
    MAX_II_FACTOR,
    ModuloSchedule,
    SchedulingError,
    _check_schedule,
    _heights_flat,
    _SchedulerState,
)


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
    probe = mrt.probe_spec
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
        token = None
        placed_at = -1
        if rng is None:
            # Earliest fit: stop scanning at the first feasible slot, and
            # keep its probe token as the placement.
            for t in range(estart, estart + ii):
                token = probe(spec, t)
                if token is not None:
                    placed_at = t
                    break
        else:
            # Jittered attempts sometimes pick a later fitting cycle,
            # which reaches schedules where an issue row must be left
            # open for a not-yet-scheduled operation — they need the
            # full fitting-slot list.
            fitting: list[int] = []
            tokens = []
            for t in range(estart, estart + ii):
                tk = probe(spec, t)
                if tk is not None:
                    fitting.append(t)
                    tokens.append(tk)
            if fitting:
                pick = 0
                if len(fitting) > 1 and rng.random() < 0.5:
                    pick = rng.choice(range(len(fitting)))
                placed_at = fitting[pick]
                token = tokens[pick]
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

        # Unschedule any scheduled neighbor whose dependence is now violated.
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
        for j in pred_e[i]:
            s = esrc[j]
            if s == i:
                continue
            ts = times[s]
            if ts < 0:
                continue
            if placed_at < ts + delay[j] - ii * edist[j]:
                mrt.remove(s)
                times[s] = -1
                push(s)
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
    instances = tuple(k for i in state.body_idx for k, _, _, _ in mrt.held[i])
    return {uids[i]: times[i] for i in reversed(last_seen)}, instances


def modulo_schedule(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    min_ii: int | None = None,
) -> ModuloSchedule:
    """The scheduler's II search over :func:`_try_schedule`: from MII
    upward, the un-jittered attempt and then three jittered restarts per
    II; the first schedule found is checked and returned."""
    state = _SchedulerState(loop, graph, machine)
    mii, res, rec = minimum_ii(loop, graph, machine, arrays=state.arrays)
    start = max(mii, min_ii or 1)
    budget = max(BUDGET_RATIO * len(loop.body), 40)
    max_ii = max(start * MAX_II_FACTOR, start + 32)
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
                None,
                base_height=base_height,
                state=state,
            )
            if found is not None:
                times, instances = found
                _check_schedule(
                    loop, graph, machine, ii, times, instances, state.arrays.delay
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
    raise SchedulingError(
        f"no schedule for {loop.name!r} with II in [{start}, {max_ii}]"
    )
