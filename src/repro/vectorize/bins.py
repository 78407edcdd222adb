"""Resource bins for partition cost evaluation (Figure 2, lines 33-70).

A bin is associated with each compiler-visible resource *instance* (each
member of a resource class is a scheduling alternative).  Reserving an
opcode places one unit of work on the least-used alternative of every
resource class the opcode requires; multi-cycle reservations (divides)
add their full busy time.  The cost of a configuration is the high-water
mark — the weight of the most heavily used bin — which equals the
resource-constrained minimum initiation interval (ResMII) of the modulo
schedule that will follow.

The bins live in the machine's flat instance layout
(:meth:`MachineDescription.instance_layout`): ``load[i]`` is the weight
of instance ``i`` and a resource class is the span
``load[first:first + count]``.  A reservation is a *plan*, a tuple of
``(first, count, cycles)`` triples, one per resource use
(:meth:`MachineDescription.reservation_spec`), and the ledger records
``(instance index, cycles)`` per key so a reservation can be released
exactly (``RELEASE-RESOURCES``), including communication overhead.
:attr:`Bins.weights` is the derived name-to-weight view.

``RESERVE-LEAST-USED`` picks the alternative that minimizes the
high-water mark, breaking ties by the *sum of squared bin weights*
(lines 53-65).  For a use of ``cycles >= 1`` cycles, putting it on a bin
of old weight ``w`` gives high-water mark ``max(hwm, w + cycles)`` and
squared-sum change ``2 * w * cycles + cycles ** 2``: the first is
non-decreasing in ``w`` and the second strictly increasing, so the
paper's choice is exactly the first least-loaded instance of the class,
``load.index(min(span))``.  The explicit scan survives only for the
first-fit ablation (``balance_ties=False``).

:meth:`Bins.checkpoint` / :meth:`Bins.rollback` journal every
reserve/release so a cost probe can mutate the live bins and undo
exactly; the high-water mark is cached and only recomputed after a
release could have lowered it.
"""

from __future__ import annotations

from repro.machine.machine import MachineDescription
from repro.machine.resources import OpcodeInfo

#: One reservation: a ``(first instance, instance count, busy cycles)``
#: triple per resource use, in use order.
Plan = tuple[tuple[int, int, int], ...]


class Bins:
    """Weights per resource instance plus a reservation ledger."""

    def __init__(self, machine: MachineDescription, balance_ties: bool = True):
        self.machine = machine
        # The paper's squared-weight tie-break (lines 53-65).  Disabling it
        # (first-fit among equal high-water alternatives) is the bin-packing
        # ablation: released-resource cost probes become less accurate.
        self.balance_ties = balance_ties
        self.names, _ = machine.instance_layout()
        self.load: list[int] = [0] * len(self.names)
        self.reservations: dict[object, list[tuple[int, int]]] = {}
        self._hwm = 0
        self._hwm_dirty = False
        # Undo journal: None when no checkpoint is active (mutations are
        # then unrecorded), else ``(key, released entries or None,
        # entries appended, key created)`` per reserve/release.
        self._journal: list[tuple] | None = None

    def copy(self) -> Bins:
        clone = Bins(self.machine, balance_ties=self.balance_ties)
        clone.load = list(self.load)
        clone.reservations = {k: list(v) for k, v in self.reservations.items()}
        clone._hwm = self.high_water_mark()
        return clone

    @property
    def weights(self) -> dict[str, int]:
        """Weight per instance name, in layout order."""
        return dict(zip(self.names, self.load))

    # ------------------------------------------------------------------

    def high_water_mark(self) -> int:
        if self._hwm_dirty:
            self._hwm = max(self.load, default=0)
            self._hwm_dirty = False
        return self._hwm

    def sum_of_squares(self) -> int:
        return sum(w * w for w in self.load)

    # ------------------------------------------------------------------
    # Checkpoint / rollback (apply-undo delta protocol)

    def checkpoint(self) -> int:
        """Start (or nest within) an undoable region; returns a mark to
        pass to :meth:`rollback`.  Journaling stays active until the
        outermost mark is rolled back."""
        if self._journal is None:
            self._journal = []
        return len(self._journal)

    def rollback(self, mark: int = 0) -> None:
        """Undo every reserve/release journaled after ``mark``."""
        journal = self._journal
        if journal is None:
            raise RuntimeError("rollback without an active checkpoint")
        load = self.load
        reservations = self.reservations
        while len(journal) > mark:
            key, released, appended, created = journal.pop()
            if released is None:
                entries = reservations[key]
                keep = len(entries) - appended
                hwm = self._hwm
                for i, cycles in entries[keep:]:
                    old = load[i]
                    load[i] = old - cycles
                    if old == hwm:
                        self._hwm_dirty = True
                del entries[keep:]
                if created:
                    del reservations[key]
            else:
                reservations[key] = released
                for i, cycles in released:
                    new = load[i] + cycles
                    load[i] = new
                    if new > self._hwm:
                        self._hwm = new
        if mark == 0:
            self._journal = None

    # ------------------------------------------------------------------

    def reserve(self, plan: Plan, key: object) -> None:
        """Reserve every use of ``plan`` on a least-used alternative,
        recording the choices under ``key`` for later release."""
        reservations = self.reservations
        ledger = reservations.get(key)
        created = ledger is None
        if created:
            ledger = reservations[key] = []
        load = self.load
        # Raising a stale (dirty) mark is harmless: it is recomputed.
        hwm = self._hwm
        for first, count, cycles in plan:
            if count == 1:
                i = first
            elif self.balance_ties:
                span = load[first : first + count]
                i = first + span.index(min(span))
            else:
                self._hwm = hwm
                i = self._first_fit(first, count, cycles)
                hwm = self._hwm
            new = load[i] + cycles
            load[i] = new
            if new > hwm:
                hwm = new
            ledger.append((i, cycles))
        self._hwm = hwm
        if self._journal is not None and (plan or created):
            self._journal.append((key, None, len(plan), created))

    def _first_fit(self, first: int, count: int, cycles: int) -> int:
        """The first alternative that leaves the high-water mark lowest."""
        hwm = self.high_water_mark()
        best = first
        best_high = None
        for i in range(first, first + count):
            new = self.load[i] + cycles
            high = hwm if hwm > new else new
            if best_high is None or high < best_high:
                best, best_high = i, high
        return best

    def reserve_least_used(self, opcode: OpcodeInfo, key: object) -> None:
        """Reserve ``opcode``'s resources on least-used alternatives."""
        self.reserve(self.machine.reservation_spec(opcode), key)

    def reserve_all(self, opcodes: list[OpcodeInfo], key: object) -> None:
        for opcode in opcodes:
            self.reserve_least_used(opcode, key)

    def release(self, key: object) -> None:
        """Release every reservation recorded under ``key``."""
        entries = self.reservations.pop(key, None)
        if not entries:
            return
        load = self.load
        hwm = self._hwm
        for i, cycles in entries:
            old = load[i]
            if old < cycles:
                raise RuntimeError(f"bin {self.names[i]} released below zero")
            load[i] = old - cycles
            if old == hwm:
                self._hwm_dirty = True
        if self._journal is not None:
            self._journal.append((key, entries, 0, False))

    def has_key(self, key: object) -> bool:
        return key in self.reservations

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.weights.items())]
        return "bins[" + ", ".join(parts) + f"] hwm={self.high_water_mark()}"


def placement_freedom(machine: MachineDescription, opcode: OpcodeInfo) -> int:
    """Number of placement alternatives for an opcode — the ordering key
    for bin-packing (fewest alternatives packed first, as in iterative
    modulo scheduling's original formulation)."""
    freedom = 1
    for use in opcode.uses:
        freedom *= machine.resource_class(use.resource).count
    return freedom
