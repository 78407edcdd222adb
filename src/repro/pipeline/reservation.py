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
for eviction) rides in a per-instance ``{row: holder}`` dict that only
placements touch.

The same masks answer every row at once: ``free_rows`` is the bitmask
of the rows a spec fits at, from one pass over its classes' instances,
and ``first_fit`` takes the first fitting row at or after a cycle and
builds the placement token there, so the scheduler never probes row by
row.

Only the scheduler builds a table.  The instances its placements hold
when it finishes are the schedule's binding
(:attr:`~repro.pipeline.scheduler.ModuloSchedule.instances`); the final
check verifies that binding and :func:`render_reservation_table` draws
it, so no second table replays a finished schedule.

The original per-(instance, row) dict implementation is kept as the
executable specification in ``tests/reservation_spec.py``: the
hypothesis equivalence suite drives both tables through random
placement/eviction sequences and requires identical observable state.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import TYPE_CHECKING

from repro.machine.machine import MachineDescription

if TYPE_CHECKING:  # avoid the scheduler <-> reservation import cycle
    from repro.pipeline.scheduler import ModuloSchedule

#: A probe's result: (start row, [(instance index, rows mask, busy cycles)]).
PlacementToken = tuple[int, list[tuple[int, int, int]]]


class ModuloReservationTable:
    """Bitmask-rows modulo reservation table.

    The API works on reservation specs
    (:meth:`MachineDescription.reservation_spec`), which the scheduler
    resolves once per op: ``probe_spec`` / ``free_rows`` / ``first_fit``
    find a placement and return it as a token that ``commit`` applies
    with no second scan, ``conflicting_spec`` and ``remove`` evict.
    Holder keys are opaque ints (the scheduler's dense op indices), and
    ``held`` maps each to the instances it holds: the binding the
    scheduler returns with its schedule.
    """

    __slots__ = (
        "machine",
        "ii",
        "full_mask",
        "busy",
        "owner",
        "held",
        "_mask_rows",
    )

    def __init__(self, machine: MachineDescription, ii: int):
        self.machine = machine
        self.ii = ii
        self.full_mask = (1 << ii) - 1
        names, _ = machine.instance_layout()
        #: Per-instance row bitmask (bit r set ⇔ row r busy).
        self.busy = [0] * len(names)
        #: Per-instance {row: holder key} (eviction).
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


# ----------------------------------------------------------------------
# ASCII rendering (the --explain kernel visualizer)


def render_reservation_table(schedule: "ModuloSchedule") -> str:
    """Draw the steady-state kernel as a modulo reservation table: one row
    per resource instance, one column per kernel cycle, each occupied cell
    naming the holding operation (``mnemonic.uid``).  The ResMII
    bottleneck resource, when known, is marked ``*``.

    The cells are the scheduler's own instance binding
    (``schedule.instances``), the one ``_check_schedule`` verified.
    """
    machine = schedule.machine
    ii = schedule.ii
    names, _ = machine.instance_layout()
    grid = [["."] * ii for _ in names]
    bound = iter(schedule.instances)
    for op in schedule.loop.body:
        label = f"{op.mnemonic()}.{op.uid}"
        t = schedule.times[op.uid]
        for _, _, cycles in machine.reservation_spec(machine.opcode_info(op)):
            cells = grid[next(bound)]
            for k in range(cycles):
                cells[(t + k) % ii] = label

    bottleneck = getattr(schedule.res_mii, "bottleneck", None)
    name_w = max(len(inst) + 2 for inst in names)
    col_w = max(
        [len(c) for cells in grid for c in cells] + [len(str(ii - 1)) + 2]
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
    for inst, cells in zip(names, grid):
        mark = "*" if inst == bottleneck else " "
        row = f"{mark}{inst}".ljust(name_w) + " ".join(
            cell.rjust(col_w) for cell in cells
        )
        lines.append(row)
    if bottleneck is not None:
        lines.append(f"  (* = ResMII bottleneck resource: {bottleneck})")
    return "\n".join(lines)
