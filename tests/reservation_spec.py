"""Executable specification of the modulo reservation table.

This is the per-(instance, row) dict table the bitmask implementation in
:mod:`repro.pipeline.reservation` replaced, kept verbatim: one dict cell
per (resource instance, row), first-fit instance choice, and the
fewest-holders eviction rule.  ``tests/test_flat_kernels.py`` drives both
tables through random placement/eviction sequences and requires identical
observable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription


@dataclass
class DictModuloReservationTable:
    """The original per-(instance, row) dict table — the executable
    specification the bitmask table must match observably (same fits,
    same chosen instances, same eviction sets)."""

    machine: MachineDescription
    ii: int
    # (resource instance, row) -> holder uid
    table: dict[tuple[str, int], int] = field(default_factory=dict)
    held: dict[int, list[tuple[str, int]]] = field(default_factory=dict)

    def _candidate_cells(
        self, instance: str, cycle: int, cycles: int
    ) -> list[tuple[str, int]]:
        return [(instance, (cycle + k) % self.ii) for k in range(cycles)]

    def _find_instances(
        self, op: Operation, cycle: int
    ) -> list[tuple[str, int]] | None:
        """Free cells for every resource the op needs, or None."""
        info = self.machine.opcode_info(op)
        chosen: list[tuple[str, int]] = []
        taken: set[tuple[str, int]] = set()
        for use in info.uses:
            if use.cycles > self.ii:
                return None  # cannot fit a reservation longer than II
            rc = self.machine.resource_class(use.resource)
            placed = False
            for instance in rc.instances():
                cells = self._candidate_cells(instance, cycle, use.cycles)
                if any(c in self.table or c in taken for c in cells):
                    continue
                chosen.extend(cells)
                taken.update(cells)
                placed = True
                break
            if not placed:
                return None
        return chosen

    def fits(self, op: Operation, cycle: int) -> bool:
        return self._find_instances(op, cycle) is not None

    def place(self, op: Operation, cycle: int) -> None:
        cells = self._find_instances(op, cycle)
        if cells is None:
            raise ValueError(f"no free resources for {op} at cycle {cycle}")
        for cell in cells:
            self.table[cell] = op.uid
        self.held[op.uid] = cells

    def conflicting_holders(self, op: Operation, cycle: int) -> set[int]:
        info = self.machine.opcode_info(op)
        holders: set[int] = set()
        for use in info.uses:
            rc = self.machine.resource_class(use.resource)
            best: set[int] | None = None
            for instance in rc.instances():
                cells = self._candidate_cells(instance, cycle, use.cycles)
                current = {self.table[c] for c in cells if c in self.table}
                if best is None or len(current) < len(best):
                    best = current
                if not current:
                    break
            holders.update(best or set())
        return holders

    def place_evicting(self, op: Operation, cycle: int) -> set[int]:
        evicted = self.conflicting_holders(op, cycle)
        for uid in evicted:
            self.remove(uid)
        self.place(op, cycle)
        return evicted

    def remove(self, uid: int) -> None:
        for cell in self.held.pop(uid, []):
            if self.table.get(cell) == uid:
                del self.table[cell]

    def occupied_cells(self) -> dict[tuple[str, int], int]:
        return dict(self.table)
