"""Compiler-visible machine resources.

A resource class (e.g. "int" with count 4) stands for a set of identical
functional units; every member unit is a scheduling *alternative* in the
sense of the paper's ``ALTERNATIVES(r)``.  Issue slots are modeled as a
resource class like any other, so issue width constrains schedules through
the same mechanism as functional units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class ResourceClass:
    """``count`` identical units named ``name``."""

    name: str
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"resource class {self.name!r} needs count >= 1")

    def instances(self) -> list[str]:
        # Memoized: instance names are asked for on every bin reservation
        # and every modulo-reservation-table scan.
        names = self.__dict__.get("_instances")
        if names is None:
            names = [f"{self.name}{i}" for i in range(self.count)]
            object.__setattr__(self, "_instances", names)
        return names

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_instances", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class _ResourceUseFields(NamedTuple):
    resource: str
    cycles: int = 1


class ResourceUse(_ResourceUseFields):
    """A requirement of one unit from ``resource`` for ``cycles`` cycles.

    ``cycles > 1`` models a non-pipelined unit (divides): the unit is busy
    and unavailable to other operations for that many consecutive cycles,
    which is exactly how the paper's bin weights account for multi-cycle
    reservations.

    A tuple of its fields, as is the :class:`OpcodeInfo` that holds it:
    every reservation lookup keys on an opcode info, so hashing and
    equality run in C.
    """

    __slots__ = ()

    def __new__(cls, resource: str, cycles: int = 1) -> ResourceUse:
        if cycles < 1:
            raise ValueError("resource use must reserve >= 1 cycle")
        return super().__new__(cls, resource, cycles)


class OpcodeInfo(NamedTuple):
    """Resource requirements and latency of one machine opcode."""

    mnemonic: str
    uses: tuple[ResourceUse, ...]
    latency: int

    def total_cycles(self) -> int:
        return sum(u.cycles for u in self.uses)
