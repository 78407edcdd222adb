"""Execution checking: a compiled loop against the interpreter.

The static checkers re-derive each stage's obligations; this one runs
the result.  :func:`interpreted` interprets the source loop from one
seeded memory image at each checked trip count, and
:func:`execution_mismatch` runs a
:class:`~repro.compiler.driver.CompiledLoop` from the same memory at the
same trip counts and says how it differs.  A trip count that is not a
multiple of a unit's factor runs that unit's cleanup loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.interp.interpreter import run_loop
from repro.interp.memory import MemoryImage, memory_for_loop
from repro.ir.loop import Loop

if TYPE_CHECKING:  # avoid a circular import with the driver
    from repro.compiler.driver import CompiledLoop

#: One interpreted run: its trip count, the user arrays it leaves and
#: the carried scalars it ends with.
Run = tuple[int, dict[str, list], dict[str, object]]


def _same_value(got: object, want: object) -> bool:
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)
    return got == want


def interpreted(
    loop: Loop, trips: Iterable[int], seed: int
) -> tuple[MemoryImage, list[Run]]:
    """The memory of ``loop`` seeded with ``seed`` and, per trip count in
    ``trips``, the user arrays and carried scalars that interpreting the
    loop from that memory leaves."""
    seeded = memory_for_loop(loop, seed=seed)
    runs: list[Run] = []
    for iterations in trips:
        reference = seeded.copy()
        carried = run_loop(loop, reference, 0, iterations).carried
        runs.append((iterations, reference.snapshot_user_arrays(), carried))
    return seeded, runs


def execution_mismatch(
    compiled: CompiledLoop, seeded: MemoryImage, runs: list[Run]
) -> str | None:
    """How ``compiled`` disagrees with the interpreter's ``runs`` (from
    :func:`interpreted`), or ``None``."""
    for iterations, arrays, expected in runs:
        memory = seeded.copy()
        got = compiled.execute(memory, iterations).carried
        if memory.snapshot_user_arrays() != arrays:
            return f"memory differs from the interpreter at trip {iterations}"
        for name, value in expected.items():
            if not _same_value(got.get(name), value):
                return (
                    f"carried {name} is {got.get(name)!r}, not {value!r}, "
                    f"at trip {iterations}"
                )
    return None
