"""Drive every stage checker over a compiled loop.

``run_all_checks`` applies the vectorize, schedule, and kernel checkers
to each compiled unit and aggregates the findings into one
:class:`CheckReport`.  With an observability recorder active, every
finding is also emitted as a ``check`` Remark (plus one summary remark
per report) so ``--explain`` and JSON traces surface validation
alongside the compiler's own provenance remarks.  Checkers
only read compilation state; they never mutate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.findings import CheckFinding, CheckReport
from repro.check.kernel_check import check_kernel
from repro.check.schedule_check import check_schedule
from repro.check.vectorize_check import check_vectorize
from repro.observability.recorder import active_recorder, maybe_span

if TYPE_CHECKING:  # avoid a circular import with the driver
    from repro.compiler.driver import CompiledLoop, CompiledUnit


def run_unit_checks(
    unit: CompiledUnit, machine: object
) -> list[CheckFinding]:
    """All findings for one compiled unit, across the three stages."""
    findings = list(check_vectorize(unit.transform, machine))
    findings += check_schedule(unit.schedule)
    findings += check_kernel(unit.schedule, unit.allocation)
    return findings


def run_all_checks(compiled: CompiledLoop) -> CheckReport:
    """Validate every unit of ``compiled`` and report the findings."""
    rec = active_recorder()
    with maybe_span(rec, "check", loop=compiled.source.name):
        findings: list[CheckFinding] = []
        for unit in compiled.units:
            findings.extend(run_unit_checks(unit, compiled.machine))
        report = CheckReport(
            loop=compiled.source.name,
            strategy=compiled.strategy.value,
            findings=findings,
            units_checked=len(compiled.units),
        )
        if rec is not None:
            rec.count("check.units_checked", len(compiled.units))
            rec.count("check.findings", len(findings))
    if rec is not None:
        for f in report.sorted_findings():
            rec.remark(
                "check",
                compiled.source.name,
                f.rule,
                f.render(),
                severity=f.severity.value,
                stage=f.stage,
                uids=list(f.uids),
                strategy=compiled.strategy.value,
            )
        rec.remark(
            "check",
            compiled.source.name,
            "check-summary",
            report.summary(),
            ok=report.ok,
            findings=len(report.findings),
            errors=len(report.errors()),
            strategy=compiled.strategy.value,
        )
    return report
