"""Translation validation: independent static checkers per compiler stage.

Each checker re-derives the obligations of one pipeline stage from the
primary sources (the loop IR, the dependence tests, the machine model)
and verifies the stage's artifact discharges them — it never trusts the
stage's own bookkeeping.  ``run_all_checks`` drives every checker over a
:class:`~repro.compiler.driver.CompiledLoop` and returns a
:class:`CheckReport`; findings flow through the observability recorder
as ``check`` remarks.  See ``docs/checking.md`` for the rule catalog.

``interpreted`` and ``execution_mismatch`` check by running instead: a
compiled loop must leave the memory and carried scalars the interpreter
leaves on the source loop.
"""

from repro.check.findings import (
    CheckFinding,
    CheckReport,
    Severity,
    TranslationValidationError,
)
from repro.check.execution import execution_mismatch, interpreted
from repro.check.runner import run_all_checks

__all__ = [
    "CheckFinding",
    "CheckReport",
    "Severity",
    "TranslationValidationError",
    "execution_mismatch",
    "interpreted",
    "run_all_checks",
]
