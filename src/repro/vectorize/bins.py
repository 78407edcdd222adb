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
``(instance index, cycles)`` per key so a probe can release a
reservation exactly (``RELEASE-RESOURCES``), including communication
overhead.
:attr:`Bins.weights` is the derived name-to-weight view.

``RESERVE-LEAST-USED`` picks the alternative that minimizes the
high-water mark, breaking ties by the *sum of squared bin weights*
(lines 53-65).  For a use of ``cycles >= 1`` cycles, putting it on a bin
of old weight ``w`` gives high-water mark ``max(hwm, w + cycles)`` and
squared-sum change ``2 * w * cycles + cycles ** 2``: the first is
non-decreasing in ``w`` and the second strictly increasing, so the
paper's choice is exactly the first least-loaded instance of the class,
``load.index(min(span))`` (of two instances, the second only when it is
strictly lighter, which :func:`_pack` compares without the slice).  The
explicit scan survives only for the first-fit ablation
(``balance_ties=False``).

The bins are append-only: each key is reserved once, so a key's ledger
entries never change.  :meth:`Bins.checkpoint` returns a snapshot mark
(the loads, the high-water mark and the ledger size) and
:meth:`Bins.rollback` restores it, dropping the keys reserved since;
:meth:`Bins.replay` reserves a whole step sequence with a mark before
each step, so a pack can resume mid-sequence.  ``TEST-REPARTITION``
(:meth:`Bins.probe`) releases and re-reserves on a copy of the loads and
never touches the live bins.  Both place through one routine,
:func:`_pack`.

A probe may carry an incumbent *bound*: the caller only needs the exact
cost when it is below the bound.  Reserving never lowers a bin, so the
high-water mark only rises as a pack goes on; once it reaches the bound
the final cost cannot be below it, and :func:`_pack` returns at once.
It checks the bound only when the high-water mark rises, so an
unbounded pack pays one comparison per rise and nothing per use.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import inf

from repro.machine.machine import MachineDescription
from repro.machine.resources import OpcodeInfo

#: One reservation: a ``(first instance, instance count, busy cycles)``
#: triple per resource use, in use order.
Plan = tuple[tuple[int, int, int], ...]
#: A :meth:`Bins.checkpoint`: the loads, the high-water mark and the
#: ledger size.
Mark = tuple[list[int], int, int]


class Bins:
    """Weights per resource instance plus an append-only reservation
    ledger."""

    def __init__(self, machine: MachineDescription, balance_ties: bool = True):
        self.machine = machine
        # The paper's squared-weight tie-break (lines 53-65).  Disabling it
        # (first-fit among equal high-water alternatives) is the bin-packing
        # ablation: released-resource cost probes become less accurate.
        self.balance_ties = balance_ties
        self.names, _ = machine.instance_layout()
        self.load: list[int] = [0] * len(self.names)
        # One entry per key, in reservation order (dicts keep it).
        self.reservations: dict[object, list[tuple[int, int]]] = {}
        self._hwm = 0

    @property
    def weights(self) -> dict[str, int]:
        """Weight per instance name, in layout order."""
        return dict(zip(self.names, self.load))

    def high_water_mark(self) -> int:
        return self._hwm

    # ------------------------------------------------------------------
    # Snapshot marks

    def checkpoint(self) -> Mark:
        """A mark to pass to :meth:`rollback`."""
        return (self.load.copy(), self._hwm, len(self.reservations))

    def rollback(self, mark: Mark) -> None:
        """Restore the loads and high-water mark of ``mark`` and drop every
        key reserved since.

        ``mark`` must be no newer than the current state: marks are
        restored last-in first-out, and a mark stays valid after use only
        until an older one is restored."""
        load, self._hwm, size = mark
        self.load[:] = load
        reservations = self.reservations
        for _ in range(len(reservations) - size):
            reservations.popitem()

    # ------------------------------------------------------------------

    def reserve(self, plan: Plan, key: object) -> None:
        """Reserve every use of ``plan`` on a least-used alternative,
        recording the choices under ``key``, which must be new."""
        self.replay(((key, plan),))

    def reserve_least_used(self, opcode: OpcodeInfo, key: object) -> None:
        """Reserve ``opcode``'s resources on least-used alternatives."""
        self.reserve(self.machine.reservation_spec(opcode), key)

    def replay(
        self, steps: Iterable[tuple[object, Plan]], marks: list[Mark] | None = None
    ) -> None:
        """Reserve each ``(key, plan)`` step in order (BIN-PACK), appending
        to ``marks``, when given, the mark taken before each step."""
        try:
            self._hwm = _pack(
                self.load, steps, self._hwm, self.balance_ties, self.reservations, marks
            )
        except KeyError:
            self._hwm = max(self.load)
            raise

    def probe(
        self, keys: Iterable[object], plans: Iterable[Plan], bound: float = inf
    ) -> int:
        """The high-water mark after releasing ``keys`` (absent ones are
        skipped) and reserving ``plans`` in order, computed on a copy of
        the loads: the bins are left untouched (TEST-REPARTITION).

        ``keys`` must be distinct: each occurrence releases the key's
        ledger once more.  With a ``bound``, the probe stops as soon as
        the copy's high-water mark reaches it and returns that mark, a
        value ``>= bound``; ``plans`` is drawn lazily, so a probe whose
        released loads already reach the bound draws no plan at all.  A
        result below ``bound`` is exact."""
        load = self.load.copy()
        reservations = self.reservations
        for key in keys:
            for i, cycles in reservations.get(key, ()):
                load[i] -= cycles
        hwm = max(load)
        if hwm >= bound:
            return hwm
        return _pack(load, enumerate(plans), hwm, self.balance_ties, {}, None, bound)


def _pack(
    load: list[int],
    steps: Iterable[tuple[object, Plan]],
    hwm: int,
    balance: bool,
    ledgers: dict[object, list[tuple[int, int]]],
    marks: list[Mark] | None = None,
    bound: float = inf,
) -> int:
    """Place every use of each ``(key, plan)`` step on ``load``
    (RESERVE-LEAST-USED, or first fit without ``balance``), recording the
    ``(instance, cycles)`` choices under the step's new key in
    ``ledgers`` and appending to ``marks``, when given, the mark taken
    before each step.  ``hwm`` is the high-water mark of ``load``; the
    new one is returned.

    The pack stops, mid-plan and without drawing another step, as soon
    as the high-water mark reaches ``bound``, leaving ``load`` and
    ``ledgers`` part-way: only a probe's throwaway copy passes one."""
    for key, plan in steps:
        if marks is not None:
            marks.append((load.copy(), hwm, len(ledgers)))
        ledger: list[tuple[int, int]] = []
        if ledgers.setdefault(key, ledger) is not ledger:
            raise KeyError(f"{key!r} is already reserved")
        for i, count, cycles in plan:
            if count != 1:
                if not balance:
                    i = _first_fit(load, i, count, cycles, hwm)
                elif count == 2:
                    if load[i + 1] < load[i]:
                        i += 1
                else:
                    span = load[i : i + count]
                    i += span.index(min(span))
            new = load[i] + cycles
            load[i] = new
            if new > hwm:
                hwm = new
                if new >= bound:
                    return new
            ledger.append((i, cycles))
    return hwm


def _first_fit(load: list[int], first: int, count: int, cycles: int, hwm: int) -> int:
    """The first alternative that leaves the high-water mark lowest."""
    best = first
    best_high = None
    for i in range(first, first + count):
        new = load[i] + cycles
        high = hwm if hwm > new else new
        if best_high is None or high < best_high:
            best, best_high = i, high
    return best


def placement_freedom(machine: MachineDescription, opcode: OpcodeInfo) -> int:
    """Number of placement alternatives for an opcode — the ordering key
    for bin-packing (fewest alternatives packed first, as in iterative
    modulo scheduling's original formulation)."""
    freedom = 1
    for use in opcode.uses:
        freedom *= machine.resource_class(use.resource).count
    return freedom
