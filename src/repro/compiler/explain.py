"""Schedule explainability — the ``--explain`` rendering pipeline.

``explain_loop`` compiles one loop under every strategy inside a scoped
recording session and assembles a self-contained report answering the
paper's central question for that loop: *why did the II come out the way
it did?*  For each strategy it shows

* the ResMII bound with its per-resource pressure table and bottleneck,
* the RecMII bound with the critical recurrence cycle (op uids),
* the per-operation partition remarks (reason codes) for selective,
* the ASCII modulo reservation table of the final kernel,

and closes with the strategy-comparison verdict remarks.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.compiler.driver import CompiledLoop, compare_strategies
from repro.compiler.strategies import ALL_STRATEGIES, Strategy
from repro.ir.loop import Loop
from repro.ir.printer import format_loop
from repro.machine.machine import MachineDescription
from repro.observability.recorder import Recorder, recording
from repro.pipeline.mii import RecMII, ResMII
from repro.pipeline.reservation import render_reservation_table


def _render_res_bound(res: ResMII | int, indent: str) -> list[str]:
    lines = [f"{indent}ResMII {int(res)}"]
    if isinstance(res, ResMII) and res.pressure:
        lines[-1] += " — pressure table (busy cycles per resource instance):"
        for inst, weight in res.pressure_rows():
            mark = "  <- bottleneck" if inst == res.bottleneck else ""
            lines.append(f"{indent}  {inst:<10} {weight:>3}{mark}")
    return lines


def _render_rec_bound(
    rec_bound: RecMII | int, ops: dict[int, object], indent: str
) -> list[str]:
    line = f"{indent}RecMII {int(rec_bound)}"
    if isinstance(rec_bound, RecMII) and rec_bound.cycle:
        line += (
            f" — critical cycle {rec_bound.describe_cycle(ops)} "
            f"(delay {rec_bound.cycle_delay} / "
            f"distance {rec_bound.cycle_distance})"
        )
    else:
        line += " — no recurrence constrains this loop"
    return [line]


def _render_strategy(
    label: str, compiled: CompiledLoop, recorder: Recorder
) -> list[str]:
    lines = [
        f"== strategy {label}: II/iteration = "
        f"{compiled.ii_per_iteration():.2f} =="
    ]
    partition_remarks = recorder.remarks.select(
        loop=compiled.source.name, pass_name="partition"
    )
    if label == Strategy.SELECTIVE.value and partition_remarks:
        lines.append("  partition decisions:")
        for r in partition_remarks:
            lines.append(f"    [{r.reason}] {r.message}")
    for unit in compiled.units:
        schedule = unit.schedule
        ops = {op.uid: op for op in unit.transform.loop.body}
        lines.append(
            f"  unit {unit.transform.loop.name}: II={schedule.ii}, "
            f"{schedule.stage_count} stages, factor {unit.factor}"
        )
        lines += _render_res_bound(schedule.res_mii, "    ")
        lines += _render_rec_bound(schedule.rec_mii, ops, "    ")
        for r in recorder.remarks.select(
            loop=unit.transform.loop.name, pass_name="scheduler"
        ):
            lines.append(f"    [{r.reason}] {r.message}")
        lines += [
            "    " + row
            for row in render_reservation_table(schedule).splitlines()
        ]
    return lines


def render_explanation(
    loop: Loop,
    compiled: dict[str, CompiledLoop],
    recorder: Recorder,
) -> str:
    """Assemble the full --explain report from an explained compilation."""
    sections: list[str] = [format_loop(loop), ""]
    for label, c in compiled.items():
        sections += _render_strategy(label, c, recorder)
        sections.append("")
    certificates = recorder.remarks.select(
        loop=loop.name, pass_name="oracle"
    )
    if certificates:
        sections.append("== optimality certificates ==")
        for r in certificates:
            sections.append(f"  [{r.reason}] {r.message}")
        sections.append("")
    validations = recorder.remarks.select(
        loop=loop.name, pass_name="check"
    )
    if validations:
        sections.append("== validation ==")
        for r in validations:
            sections.append(f"  [{r.reason}] {r.message}")
        sections.append("")
    verdicts = recorder.remarks.select(loop=loop.name, pass_name="driver")
    if verdicts:
        sections.append("== strategy comparison ==")
        for r in verdicts:
            sections.append(f"  [{r.reason}] {r.message}")
    return "\n".join(sections)


def explain_loop(
    loop: Loop,
    machine: MachineDescription,
    strategies: tuple[Strategy, ...] | None = None,
    optimize: bool = False,
    trip_count: int | None = None,
    oracle_budget=None,
    check: bool = False,
) -> str:
    """Compile ``loop`` under every strategy and explain the outcome.

    With ``oracle_budget`` (an :class:`repro.oracle.OracleBudget`), the
    exact-optimality oracle certifies the selective compilation and the
    report grows an "optimality certificates" section.  With ``check``,
    translation validation runs over every strategy's result and the
    report grows a "validation" section.
    """
    if trip_count is not None and loop.trip_count is None:
        loop = dc_replace(loop, trip_count=trip_count)
    with recording() as recorder:
        compiled = compare_strategies(
            loop, machine, strategies or ALL_STRATEGIES, optimize=optimize
        )
        if oracle_budget is not None:
            from repro.oracle.gap import certify_compiled

            selective = compiled.get(Strategy.SELECTIVE.value)
            if selective is not None:
                certify_compiled(
                    loop, machine, selective, budget=oracle_budget
                )
        if check:
            from repro.compiler.driver import run_translation_checks

            for c in compiled.values():
                run_translation_checks(c)
    return render_explanation(loop, compiled, recorder)
