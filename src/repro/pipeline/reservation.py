"""Modulo reservation table.

Resource conflicts in a modulo schedule recur every II cycles, so the
table has II rows; an operation issued at cycle ``t`` reserves its
resources in row ``t mod II``.  Multi-cycle reservations (non-pipelined
divides) occupy consecutive rows.  Each resource class offers its member
instances as alternatives; placement picks free instances and remembers
them so eviction can release exactly what an operation held.

:class:`ModuloReservationTable` keeps one Python int per resource
instance as a row bitmask: row ``r`` busy ⇔ bit ``r`` set.  A
reservation of ``c`` consecutive rows starting at ``start`` is the
rotated interval mask ``((1 << c) - 1) << start``, wrapped modulo II —
so a feasibility probe is one AND per instance instead of per-cell dict
lookups, and committing a placement is one OR.  Row ownership (needed
for eviction and rendering) rides in a per-instance ``{row: holder}``
dict that only placements touch.

The same masks answer every row at once: ``free_rows`` is the bitmask
of the rows a spec fits at, from one pass over its classes' instances,
and ``first_fit`` takes the first fitting row at or after a cycle and
builds the placement token there, so the scheduler never probes row by
row.

The original per-(instance, row) dict implementation is kept as the
executable specification in ``tests/reservation_spec.py``: the
hypothesis equivalence suite drives both tables through random
placement/eviction sequences and requires identical observable state.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import TYPE_CHECKING

from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription

if TYPE_CHECKING:  # avoid the scheduler <-> reservation import cycle
    from repro.pipeline.scheduler import ModuloSchedule

#: A probe's result: (start row, [(instance index, rows mask, busy cycles)]).
PlacementToken = tuple[int, list[tuple[int, int, int]]]


class ModuloReservationTable:
    """Bitmask-rows modulo reservation table.

    The op-level API (``fits`` / ``place`` / ``place_evicting`` /
    ``remove``) keys holders by ``op.uid``.  The spec-level API
    (``spec_of`` / ``probe_spec`` / ``commit`` / ...) lets the scheduler
    resolve an op's reservation spec once, reuse the probe's result as a
    placement token (no second scan on commit), and key holders by its
    own dense indices — holder keys are opaque ints either way.
    """

    __slots__ = (
        "machine",
        "ii",
        "full_mask",
        "busy",
        "owner",
        "held",
        "_names",
        "_mask_rows",
    )

    def __init__(self, machine: MachineDescription, ii: int):
        self.machine = machine
        self.ii = ii
        self.full_mask = (1 << ii) - 1
        names, _ = machine.instance_layout()
        self._names = names
        #: Per-instance row bitmask (bit r set ⇔ row r busy).
        self.busy = [0] * len(names)
        #: Per-instance {row: holder key} (eviction / rendering).
        self.owner: list[dict[int, int]] = [{} for _ in names]
        #: holder key -> [(instance index, rows mask, start, cycles)].
        self.held: dict[int, list[tuple[int, int, int, int]]] = {}
        #: cycles -> per-start-row interval mask, built on first use (the
        #: probe loop then does one list index instead of re-rotating).
        self._mask_rows: dict[int, list[int]] = {}

    def _masks_for(self, cycles: int) -> list[int]:
        ii = self.ii
        full = self.full_mask
        base = (1 << cycles) - 1
        row = []
        for start in range(ii):
            m = base << start
            row.append((m | (m >> ii)) & full)
        self._mask_rows[cycles] = row
        return row

    # ------------------------------------------------------------------
    # Spec-level fast path

    def spec_of(self, op: Operation) -> tuple[tuple[int, int, int], ...]:
        machine = self.machine
        return machine.reservation_spec(machine.opcode_info(op))

    def probe_spec(
        self, spec: tuple[tuple[int, int, int], ...], cycle: int
    ) -> PlacementToken | None:
        """Free instances for every use at ``cycle``, or None.  For each
        use the first free instance of its class wins (the paper's
        ALTERNATIVES order)."""
        ii = self.ii
        start = cycle % ii
        busy = self.busy
        mask_rows = self._mask_rows
        chosen: list[tuple[int, int, int]] = []
        taken: dict[int, int] = {}
        for first, count, cycles in spec:
            if cycles > ii:
                return None  # cannot fit a reservation longer than II
            row = mask_rows.get(cycles)
            if row is None:
                row = self._masks_for(cycles)
            mask = row[start]
            for i in range(first, first + count):
                if (busy[i] | taken.get(i, 0)) & mask == 0:
                    chosen.append((i, mask, cycles))
                    taken[i] = taken.get(i, 0) | mask
                    break
            else:
                return None
        return start, chosen

    def free_rows(self, spec: tuple[tuple[int, int, int], ...]) -> int:
        """The kernel rows at which ``probe_spec(spec, row)`` succeeds, as
        a bitmask (bit ``r`` set ⇔ row ``r`` fits).

        A one-cycle use fits wherever some instance of its class is free:
        the rows not busy on all of them.  A ``c``-cycle use fits at ``r``
        on an instance whose rows ``r`` to ``r + c - 1`` (mod II) are all
        free, the AND of ``c`` rotations of its free rows.  The spec fits
        where every use does.  This leaves out ``probe_spec``'s
        bookkeeping of the instances an earlier use took, so it is exact
        because a spec's uses name distinct classes
        (:meth:`MachineDescription.reservation_spec` refuses others)."""
        ii = self.ii
        full = self.full_mask
        busy = self.busy
        rows = full
        for first, count, cycles in spec:
            if cycles == 1:
                rows &= ~reduce(and_, busy[first : first + count])
            elif cycles > ii:
                return 0  # cannot fit a reservation longer than II
            else:
                fits = 0
                for i in range(first, first + count):
                    free = full & ~busy[i]
                    run = free
                    for k in range(1, cycles):
                        run &= (free >> k) | (free << (ii - k))
                    fits |= run
                rows &= fits
            if not rows:
                return 0
        return rows

    def first_fit(
        self, spec: tuple[tuple[int, int, int], ...], cycle: int
    ) -> tuple[int, PlacementToken] | None:
        """The first cycle in ``[cycle, cycle + II)`` at which
        ``probe_spec`` succeeds, with the token it would return there, or
        None: one :meth:`free_rows` mask, then each use takes the first
        instance of its class that is free at the chosen row."""
        rows = self.free_rows(spec)
        if not rows:
            return None
        ii = self.ii
        shift = cycle % ii
        ahead = (rows >> shift) | (rows << (ii - shift))
        offset = (ahead & -ahead).bit_length() - 1
        start = (shift + offset) % ii
        busy = self.busy
        mask_rows = self._mask_rows
        chosen: list[tuple[int, int, int]] = []
        for first, _, cycles in spec:
            row = mask_rows.get(cycles)
            if row is None:
                row = self._masks_for(cycles)
            mask = row[start]
            i = first
            while busy[i] & mask:  # some instance is free: the row fits
                i += 1
            chosen.append((i, mask, cycles))
        return cycle + offset, (start, chosen)

    def commit(self, key: int, token: PlacementToken) -> None:
        """Apply a probe's placement under holder ``key``."""
        ii = self.ii
        start, chosen = token
        cells = self.held[key] = []
        for i, mask, cycles in chosen:
            self.busy[i] |= mask
            rows = self.owner[i]
            for k in range(cycles):
                rows[(start + k) % ii] = key
            cells.append((i, mask, start, cycles))

    def conflicting_spec(
        self, spec: tuple[tuple[int, int, int], ...], cycle: int
    ) -> set[int]:
        """Holder keys standing in the way of a placement at ``cycle``,
        choosing for each use the alternative displacing the fewest
        holders."""
        ii = self.ii
        start = cycle % ii
        holders: set[int] = set()
        for first, count, cycles in spec:
            span = min(cycles, ii)
            best: set[int] | None = None
            for i in range(first, first + count):
                rows = self.owner[i]
                current: set[int] = set()
                if rows:
                    for k in range(span):
                        holder = rows.get((start + k) % ii)
                        if holder is not None:
                            current.add(holder)
                if best is None or len(current) < len(best):
                    best = current
                if not current:
                    break
            holders.update(best or set())
        return holders

    def remove(self, key: int) -> None:
        ii = self.ii
        for i, _, start, cycles in self.held.pop(key, []):
            rows = self.owner[i]
            clear = 0
            for k in range(cycles):
                row = (start + k) % ii
                if rows.get(row) == key:
                    del rows[row]
                    clear |= 1 << row
            self.busy[i] &= ~clear

    # ------------------------------------------------------------------
    # Op-level API (holders keyed by op.uid)

    def fits(self, op: Operation, cycle: int) -> bool:
        return self.probe_spec(self.spec_of(op), cycle) is not None

    def place(self, op: Operation, cycle: int) -> None:
        token = self.probe_spec(self.spec_of(op), cycle)
        if token is None:
            raise ValueError(f"no free resources for {op} at cycle {cycle}")
        self.commit(op.uid, token)

    def conflicting_holders(self, op: Operation, cycle: int) -> set[int]:
        """Uids holding resources the op would need at ``cycle``, choosing
        for each resource class the alternative displacing the fewest
        holders."""
        return self.conflicting_spec(self.spec_of(op), cycle)

    def place_evicting(self, op: Operation, cycle: int) -> set[int]:
        """Place the op at ``cycle``, evicting whatever stands in the way.
        Returns the evicted uids."""
        spec = self.spec_of(op)
        evicted = self.conflicting_spec(spec, cycle)
        for key in evicted:
            self.remove(key)
        token = self.probe_spec(spec, cycle)
        if token is None:
            raise ValueError(f"no free resources for {op} at cycle {cycle}")
        self.commit(op.uid, token)
        return evicted

    # ------------------------------------------------------------------

    def occupied_cells(self) -> dict[tuple[str, int], int]:
        """``(instance name, row) -> holder key`` for every busy cell —
        the rendering view the dict implementation kept as its primary
        state."""
        return {
            (self._names[i], row): key
            for i, rows in enumerate(self.owner)
            for row, key in rows.items()
        }


# ----------------------------------------------------------------------
# ASCII rendering (the --explain kernel visualizer)


def render_reservation_table(schedule: "ModuloSchedule") -> str:
    """Draw the steady-state kernel as a modulo reservation table: one row
    per resource instance, one column per kernel cycle, each occupied cell
    naming the holding operation (``mnemonic.uid``).  The ResMII
    bottleneck resource, when known, is marked ``*``.

    The table is reconstructed by replaying the schedule's placements in
    issue order — the same replay ``_check_schedule`` validates — so what
    is drawn is a feasible instance binding of the final kernel.
    """
    machine = schedule.machine
    ii = schedule.ii
    mrt = ModuloReservationTable(machine, ii)
    for op in sorted(schedule.loop.body, key=lambda o: schedule.times[o.uid]):
        mrt.place(op, schedule.times[op.uid])
    by_uid = {op.uid: op for op in schedule.loop.body}
    cells = mrt.occupied_cells()

    def label(uid: int) -> str:
        return f"{by_uid[uid].mnemonic()}.{uid}"

    bottleneck = getattr(schedule.res_mii, "bottleneck", None)
    instances = [
        inst for rc in machine.resources for inst in rc.instances()
    ]
    grid = {
        inst: [
            label(cells[(inst, row)]) if (inst, row) in cells else "."
            for row in range(ii)
        ]
        for inst in instances
    }
    name_w = max(len(inst) + 2 for inst in instances)
    col_w = max(
        [len(c) for cells_ in grid.values() for c in cells_] + [len(str(ii - 1)) + 2]
    )
    lines = [
        f"reservation table of {schedule.loop.name}: II={ii}, "
        f"{schedule.stage_count} stages "
        f"(ResMII {int(schedule.res_mii)}, RecMII {int(schedule.rec_mii)})"
    ]
    header = " " * name_w + " ".join(
        f"c{row}".rjust(col_w) for row in range(ii)
    )
    lines.append(header)
    for inst in instances:
        mark = "*" if inst == bottleneck else " "
        row = f"{mark}{inst}".ljust(name_w) + " ".join(
            cell.rjust(col_w) for cell in grid[inst]
        )
        lines.append(row)
    if bottleneck is not None:
        lines.append(f"  (* = ResMII bottleneck resource: {bottleneck})")
    return "\n".join(lines)
