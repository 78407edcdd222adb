"""Exact modulo scheduling: certify the heuristic scheduler's II.

A modulo schedule decomposes each issue time as
``t_i = k_i * II + r_i`` with kernel row ``r_i in [0, II)``.  For a
*fixed* row assignment the stage numbers ``k_i`` must satisfy the
difference constraints

    k_dst - k_src >= ceil((delay_e - II*distance_e - r_dst + r_src) / II)

for every dependence edge ``e``, which is feasible iff the constraint
graph has no positive-weight cycle (checked by Bellman-Ford longest
paths, the same machinery RecMII uses).  Resource conflicts recur every
II cycles, so rows alone decide them.  The oracle therefore searches the
row space exhaustively — depth-first over operations, most-constrained
first, pruning every prefix whose difference constraints already cycle —
and decides *exactly* whether any modulo schedule exists at a given II.

Resource accounting is exact, unlike the heuristic's greedy
:class:`ModuloReservationTable`: unit-cycle reservations are counted per
(class, row) — instances are interchangeable there, so a count check is
complete — while multi-cycle reservations (non-pipelined divides) pin
concrete instances and are enumerated as explicit alternatives.

``certify_schedule`` walks II upward from MII: each infeasible II is
*proved* infeasible; the first feasible II is the certified optimum
(witness schedule included).  Reaching the heuristic's achieved II
certifies it optimal.  Budget exhaustion mid-proof degrades to
``bounded``/``timeout`` with the infeasibility prefix retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dependence.graph import DependenceGraph
from repro.ir.loop import Loop
from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription
from repro.oracle import CERTIFIED, BudgetMeter, OracleBudget
from repro.pipeline.mii import edge_delays, minimum_ii
from repro.pipeline.scheduler import _heights


@dataclass
class ScheduleOracleResult:
    """Certificate for one loop's achieved II.

    ``certified_ii`` is the *provably minimal* II when
    ``status == "certified"`` (equal to ``achieved_ii`` when the
    heuristic was optimal; smaller when the oracle found a better
    schedule, carried in ``witness``).  Otherwise only
    ``ii_lower_bound`` is guaranteed.
    """

    status: str
    mii: int
    res_mii: int
    rec_mii: int
    achieved_ii: int
    certified_ii: int | None
    infeasible_iis: tuple[int, ...]
    nodes: int
    elapsed_s: float
    witness: dict[int, int] | None = field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def ii_gap(self) -> int | None:
        """Cycles the heuristic left on the table (0 when optimal)."""
        if self.certified_ii is None:
            return None
        return self.achieved_ii - self.certified_ii

    @property
    def ii_lower_bound(self) -> int:
        """Smallest II not yet proven infeasible."""
        if self.infeasible_iis:
            return self.infeasible_iis[-1] + 1
        return self.mii


# ----------------------------------------------------------------------
# Exact resource state


class _ExactReservation:
    """Row occupancy with exact (not greedy) instance accounting."""

    def __init__(self, machine: MachineDescription, ii: int):
        self.machine = machine
        self.ii = ii
        # (class, row) -> unit-cycle reservations held there.
        self.unit: dict[tuple[str, int], int] = {}
        # (class, instance index, row) occupied by a multi-cycle use.
        self.multi_cells: set[tuple[str, int, int]] = set()
        # (class, row) -> distinct instances holding a multi-cycle cell.
        self.multi_rows: dict[tuple[str, int], int] = {}

    def placements(
        self, op: Operation, row: int
    ) -> list[tuple[list[tuple[str, int]], list[tuple[str, int, int]]]]:
        """Every distinct way to reserve ``op``'s resources at ``row``:
        ``(unit cells, multi-cycle instance cells)`` pairs.  Unit uses
        have one canonical placement (instances are interchangeable);
        each multi-cycle use contributes one alternative per free
        instance whose occupied span matters to later operations."""
        info = self.machine.opcode_info(op)
        units: list[tuple[str, int]] = []
        multi_uses = []
        for use in info.uses:
            if use.cycles == 1:
                units.append((use.resource, row))
            elif use.cycles > self.ii:
                return []  # a reservation longer than II can never fit
            else:
                multi_uses.append(use)

        results: list[
            tuple[list[tuple[str, int]], list[tuple[str, int, int]]]
        ] = []

        def feasible(chosen: list[tuple[str, int, int]]) -> bool:
            new_instances: dict[tuple[str, int], set[int]] = {}
            for cls, idx, r in chosen:
                new_instances.setdefault((cls, r), set()).add(idx)
            needed: dict[tuple[str, int], int] = {}
            for cell in units:
                needed[cell] = needed.get(cell, 0) + 1
            for cell in set(needed) | set(new_instances):
                used = self.unit.get(cell, 0) + self.multi_rows.get(cell, 0)
                used += len(new_instances.get(cell, ()))
                used += needed.get(cell, 0)
                if used > self.machine.resource_class(cell[0]).count:
                    return False
            return True

        def expand(i: int, chosen: list[tuple[str, int, int]]) -> None:
            if i == len(multi_uses):
                if feasible(chosen):
                    results.append((list(units), list(chosen)))
                return
            use = multi_uses[i]
            span = [(row + k) % self.ii for k in range(use.cycles)]
            for idx in range(self.machine.resource_class(use.resource).count):
                cells = [(use.resource, idx, r) for r in span]
                if any(c in self.multi_cells or c in chosen for c in cells):
                    continue
                expand(i + 1, chosen + cells)

        expand(0, [])
        return results

    def place(self, placement) -> None:
        units, cells = placement
        for cell in units:
            self.unit[cell] = self.unit.get(cell, 0) + 1
        for cls, idx, r in cells:
            self.multi_cells.add((cls, idx, r))
            self.multi_rows[(cls, r)] = self.multi_rows.get((cls, r), 0) + 1

    def unplace(self, placement) -> None:
        units, cells = placement
        for cell in units:
            self.unit[cell] -= 1
        for cls, idx, r in cells:
            self.multi_cells.remove((cls, idx, r))
            self.multi_rows[(cls, r)] -= 1


# ----------------------------------------------------------------------
# Stage feasibility (difference constraints over the assigned prefix)


def _stage_potentials(
    rows: dict[int, int],
    arcs: list[tuple[int, int, int]],
    ii: int,
) -> dict[int, int] | None:
    """Longest-path stage numbers consistent with the assigned rows, or
    ``None`` when the difference constraints carry a positive cycle."""
    dist = {uid: 0 for uid in rows}
    active = []
    for src, dst, c in arcs:
        if src in rows and dst in rows:
            w = -(-(c - rows[dst] + rows[src]) // ii)
            if src == dst:
                if w > 0:  # an edge op->op the row itself cannot satisfy
                    return None
                continue
            active.append((src, dst, w))
    for _ in range(len(rows)):
        changed = False
        for src, dst, w in active:
            nd = dist[src] + w
            if nd > dist[dst]:
                dist[dst] = nd
                changed = True
        if not changed:
            return dist
    return None


def _feasible_at(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    ii: int,
    delays,
    meter: BudgetMeter,
) -> tuple[bool | None, dict[int, int] | None]:
    """Exact feasibility of II: ``(True, times)``, ``(False, None)``, or
    ``(None, None)`` when the budget ran out mid-proof."""
    arcs = [(e.src, e.dst, delays[e] - ii * e.distance) for e in graph.edges]
    heights = _heights(loop, graph, machine, ii)
    total_cycles = {
        op.uid: sum(u.cycles for u in machine.opcode_info(op).uses)
        for op in loop.body
    }
    body_index = {op.uid: i for i, op in enumerate(loop.body)}
    order = sorted(
        loop.body,
        key=lambda op: (
            -heights[op.uid],
            -total_cycles[op.uid],
            body_index[op.uid],
        ),
    )
    res = _ExactReservation(machine, ii)
    rows: dict[int, int] = {}

    def search(idx: int) -> bool | None:
        if idx == len(order):
            return True
        op = order[idx]
        for row in range(ii):
            if not meter.charge():
                return None
            for placement in res.placements(op, row):
                res.place(placement)
                rows[op.uid] = row
                if _stage_potentials(rows, arcs, ii) is not None:
                    sub = search(idx + 1)
                    if sub:
                        return True  # keep state: rows holds the witness
                    if sub is None:
                        res.unplace(placement)
                        del rows[op.uid]
                        return None
                res.unplace(placement)
                del rows[op.uid]
        return False

    outcome = search(0)
    if not outcome:
        return outcome, None
    stages = _stage_potentials(rows, arcs, ii)
    assert stages is not None
    base = min(stages.values())
    times = {uid: (stages[uid] - base) * ii + rows[uid] for uid in rows}
    _validate_witness(graph, delays, ii, times, loop)
    return True, times


def _validate_witness(graph, delays, ii, times, loop) -> None:
    for edge in graph.edges:
        if times[edge.dst] + ii * edge.distance < times[edge.src] + delays[edge]:
            raise RuntimeError(
                f"oracle witness violates {edge} in {loop.name!r} at II={ii}"
            )


# ----------------------------------------------------------------------


def certify_schedule(
    loop: Loop,
    graph: DependenceGraph,
    machine: MachineDescription,
    achieved_ii: int,
    budget: OracleBudget | None = None,
) -> ScheduleOracleResult:
    """Certify (or bound) the minimality of ``achieved_ii`` for ``loop``.

    IIs are examined upward from MII; each is either proved infeasible
    or a witness schedule is produced.  ``achieved_ii`` itself is known
    feasible (the heuristic's schedule is the witness), so proving
    ``[MII, achieved_ii)`` infeasible certifies optimality.
    """
    from repro.observability.recorder import active_recorder

    meter = BudgetMeter(budget or OracleBudget())
    delays = edge_delays(graph, machine)
    mii, res, rec_bound = minimum_ii(loop, graph, machine)

    infeasible: list[int] = []
    certified_ii: int | None = None
    witness: dict[int, int] | None = None
    status = CERTIFIED
    if achieved_ii <= mii:
        certified_ii = achieved_ii
    else:
        for ii in range(mii, achieved_ii):
            feasible, times = _feasible_at(
                loop, graph, machine, ii, delays, meter
            )
            if feasible is None:
                status = meter.status()
                break
            if feasible:
                certified_ii = ii
                witness = times
                break
            infeasible.append(ii)
        else:
            certified_ii = achieved_ii

    result = ScheduleOracleResult(
        status=status,
        mii=mii,
        res_mii=int(res),
        rec_mii=int(rec_bound),
        achieved_ii=achieved_ii,
        certified_ii=certified_ii,
        infeasible_iis=tuple(infeasible),
        nodes=meter.nodes,
        elapsed_s=meter.elapsed,
        witness=witness,
    )
    recorder = active_recorder()
    if recorder is not None:
        recorder.count("oracle.schedule_runs")
        recorder.count("oracle.schedule_nodes", result.nodes)
        recorder.count(f"oracle.schedule_{result.status}")
    return result
