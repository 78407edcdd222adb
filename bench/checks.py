"""Correctness checks of a run, made after its timed passes.

An operation (one compile, or one request) fails when it raises, is
answered with an error, returns a result that differs from another pass
or from a direct compile, or, for the sampled pairs, computes something
other than the source loop.  Each failed operation counts once.
"""

from __future__ import annotations

import math

import repro.check
from repro.interp.interpreter import run_loop
from repro.interp.memory import memory_for_loop

from bench.config import (
    EXEC_CLEANUP_TRIP,
    EXEC_MAX_TRIP,
    EXEC_MEMORY_SEED,
    EXEC_STRIDE,
)


class Failures:
    """Failed operations of one run, each recorded once with a reason."""

    def __init__(self) -> None:
        self.reasons: dict[tuple, str] = {}

    def add(self, key: tuple, reason: str) -> None:
        self.reasons.setdefault(key, reason)

    def __len__(self) -> int:
        return len(self.reasons)

    def examples(self, limit: int = 5) -> list[str]:
        return [f"{key}: {reason}" for key, reason in list(self.reasons.items())[:limit]]


def sampled(index: int) -> bool:
    """Whether the pair at corpus position ``index`` is execution-checked."""
    return index % EXEC_STRIDE == 0


def _same_value(got: object, want: object) -> bool:
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)
    return got == want


def interpreted(loop, trip: int) -> tuple:
    """The seeded memory of ``loop`` and, per checked trip count, the user
    arrays and carried scalars that interpreting the loop leaves.

    Runs ``min(trip, EXEC_MAX_TRIP)`` iterations and a trip count that
    leaves a remainder for the cleanup loop, each from the same seeded
    memory.  Every strategy's compile of the loop is checked against it.
    """
    seeded = memory_for_loop(loop, seed=EXEC_MEMORY_SEED)
    runs = []
    for iterations in (min(trip, EXEC_MAX_TRIP), EXEC_CLEANUP_TRIP):
        reference = seeded.copy()
        carried = run_loop(loop, reference, 0, iterations).carried
        runs.append((iterations, reference.snapshot_user_arrays(), carried))
    return seeded, runs


def execution_mismatch(compiled, seeded, runs: list[tuple]) -> str | None:
    """How ``compiled`` disagrees with the interpreter's ``runs`` (from
    :func:`interpreted`), or ``None``."""
    for iterations, arrays, expected in runs:
        memory = seeded.copy()
        got = compiled.execute(memory, iterations).carried
        if memory.snapshot_user_arrays() != arrays:
            return f"memory differs from the interpreter at trip {iterations}"
        for name, value in expected.items():
            if not _same_value(got.get(name), value):
                return f"carried {name} is {got.get(name)!r}, not {value!r}, at trip {iterations}"
    return None


def check_sample(sample: dict[int, tuple], failures: Failures, scope: object) -> None:
    """Execution- and translation-check ``{index: (loop, compiled, trip)}``;
    a failure is recorded under ``(scope, index)``.

    ``repro.check.run_all_checks`` is looked up at call time, so a traced
    run times it as the ``check`` layer.
    """
    by_loop: dict[int, list] = {}
    for index, (loop, compiled, trip) in sorted(sample.items()):
        by_loop.setdefault(id(loop), []).append((index, loop, compiled, trip))
    for pairs in by_loop.values():
        _, loop, _, trip = pairs[0]
        seeded, runs = interpreted(loop, trip)
        for index, _, compiled, _ in pairs:
            reason = execution_mismatch(compiled, seeded, runs)
            if reason is not None:
                failures.add((scope, index), reason)
            report = repro.check.run_all_checks(compiled)
            if not report.ok:
                failures.add((scope, index), f"translation check: {report.summary()}")
