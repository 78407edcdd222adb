"""Executable specification of the partitioner's resource bins.

This is the dict-keyed ``Bins`` the flat-array implementation in
:mod:`repro.vectorize.bins` replaced, kept verbatim: weights keyed by
instance name, ledger entries ``(instance name, cycles)``, and
``RESERVE-LEAST-USED`` as the paper's explicit scan for the lowest
(high-water mark, sum of squares) alternative (Figure 2, lines 50-66).
It keeps the release, copy and undo journal the append-only flat bins
dropped: ``tests/test_bins.py`` checks the flat bins' reserve, snapshot
marks and probe against it step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.machine import MachineDescription
from repro.machine.resources import OpcodeInfo


@dataclass
class Bins:
    """Weights per resource instance plus a reservation ledger."""

    machine: MachineDescription
    weights: dict[str, int] = field(default_factory=dict)
    reservations: dict[object, list[tuple[str, int]]] = field(default_factory=dict)
    # The paper's squared-weight tie-break (lines 53-65).  Disabling it
    # (first-fit among equal high-water alternatives) is the bin-packing
    # ablation: released-resource cost probes become less accurate.
    balance_ties: bool = True

    def __post_init__(self) -> None:
        if not self.weights:
            for rc in self.machine.resources:
                for instance in rc.instances():
                    self.weights[instance] = 0
        self._sum_sq = sum(w * w for w in self.weights.values())
        self._hwm = max(self.weights.values(), default=0)
        self._hwm_dirty = False
        # Undo journal: None when no checkpoint is active (mutations are
        # then unrecorded), else a list of undo entries.
        self._journal: list[tuple[str, object, object]] | None = None

    def copy(self) -> Bins:
        clone = Bins(self.machine, dict(self.weights), balance_ties=self.balance_ties)
        clone.reservations = {k: list(v) for k, v in self.reservations.items()}
        return clone

    # ------------------------------------------------------------------

    def high_water_mark(self) -> int:
        if self._hwm_dirty:
            self._hwm = max(self.weights.values(), default=0)
            self._hwm_dirty = False
        return self._hwm

    def sum_of_squares(self) -> int:
        return self._sum_sq

    def _add_weight(self, instance: str, delta: int) -> None:
        old = self.weights[instance]
        new = old + delta
        self.weights[instance] = new
        self._sum_sq += new * new - old * old
        if delta > 0:
            if not self._hwm_dirty and new > self._hwm:
                self._hwm = new
        elif not self._hwm_dirty and old == self._hwm:
            # The (possibly unique) maximum shrank; recompute lazily.
            self._hwm_dirty = True

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
        while len(journal) > mark:
            kind, key, payload = journal.pop()
            if kind == "reserve":
                appended, created = payload
                entries = self.reservations[key]
                for _ in range(appended):
                    instance, cycles = entries.pop()
                    self._add_weight(instance, -cycles)
                if created:
                    del self.reservations[key]
            else:  # "release"
                entries = payload
                self.reservations[key] = entries
                for instance, cycles in entries:
                    self._add_weight(instance, cycles)
        if mark == 0:
            self._journal = None

    # ------------------------------------------------------------------

    def reserve_least_used(self, opcode: OpcodeInfo, key: object) -> None:
        """Reserve ``opcode``'s resources on least-used alternatives,
        recording the choice under ``key`` for later release."""
        created = key not in self.reservations
        ledger = self.reservations.setdefault(key, [])
        appended = 0
        weights = self.weights
        for use in opcode.uses:
            rc = self.machine.resource_class(use.resource)
            best_instance: str | None = None
            best_high = None
            best_cost = None
            hwm = self.high_water_mark()
            for instance in rc.instances():
                old = weights[instance]
                new_weight = old + use.cycles
                high = hwm if hwm > new_weight else new_weight
                # Incremental sum of squares: only this bin changes, and
                # the shared total cancels in comparisons.
                cost = (
                    new_weight * new_weight - old * old
                    if self.balance_ties
                    else 0
                )
                if (
                    best_high is None
                    or high < best_high
                    or (high == best_high and cost < best_cost)
                ):
                    best_high = high
                    best_cost = cost
                    best_instance = instance
            assert best_instance is not None
            self._add_weight(best_instance, use.cycles)
            ledger.append((best_instance, use.cycles))
            appended += 1
        if self._journal is not None and (appended or created):
            self._journal.append(("reserve", key, (appended, created)))

    def reserve_all(self, opcodes: list[OpcodeInfo], key: object) -> None:
        for opcode in opcodes:
            self.reserve_least_used(opcode, key)

    def release(self, key: object) -> None:
        """Release every reservation recorded under ``key``."""
        entries = self.reservations.pop(key, [])
        for instance, cycles in entries:
            self._add_weight(instance, -cycles)
            if self.weights[instance] < 0:
                raise RuntimeError(f"bin {instance} released below zero")
        if self._journal is not None and entries:
            self._journal.append(("release", key, entries))

    def has_key(self, key: object) -> bool:
        return key in self.reservations

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.weights.items())]
        return "bins[" + ", ".join(parts) + f"] hwm={self.high_water_mark()}"
