"""Translation validation: clean artifacts pass, corrupted ones are
caught by the matching rule id.

The corruption tests are the proof that the checkers re-derive their
obligations rather than echo compiler state: each one mutates exactly
one artifact field (a cycle slot, a register assignment, a dropped
transfer op) and asserts the specific rule that must fire.
"""

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import Severity, TranslationValidationError, run_all_checks
from repro.check.kernel_check import check_kernel
from repro.check.schedule_check import check_schedule
from repro.check.vectorize_check import check_vectorize
from repro.compiler.driver import (
    compile_loop,
    run_translation_checks,
)
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import build_dependence_graph
from repro.dependence.graph import DepKind
from repro.ir.operations import Operation, OpKind
from repro.ir.values import vector_register
from repro.machine.configs import figure1_machine, paper_machine
from repro.observability import recording
from repro.vectorize.communication import Side
from repro.vectorize.transform import SCRATCH_PREFIX, transform_loop
from repro.workloads.generator import GENERATORS, generate
from repro.workloads.kernels import dot_product, saxpy, stencil3

MACHINE = paper_machine()


def rules_of(findings):
    return {f.rule for f in findings if f.severity is Severity.ERROR}


# ----------------------------------------------------------------------
# Clean artifacts validate


@pytest.mark.parametrize("kernel", [dot_product, saxpy, stencil3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_clean_compiles_have_no_findings(kernel, strategy):
    compiled = compile_loop(kernel(), MACHINE, strategy)
    report = run_all_checks(compiled)
    assert report.ok, report.render_text()
    assert not report.findings, report.render_text()


@pytest.mark.parametrize("strategy", list(Strategy))
def test_figure1_machine_compiles_validate(strategy):
    compiled = compile_loop(
        dot_product(),
        figure1_machine(),
        strategy,
        baseline_unroll=1 if strategy is Strategy.BASELINE else None,
    )
    report = run_all_checks(compiled)
    assert report.ok, report.render_text()


loops = st.builds(
    generate,
    archetype=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 50_000),
)


@settings(max_examples=15, deadline=None)
@given(loop=loops, strategy=st.sampled_from(list(Strategy)))
def test_rederived_obligations_always_honored(loop, strategy):
    """Superset property: the checker re-derives every dependence edge
    from scratch; a clean report proves the schedule honored at least
    everything the checker derived (and the allocator's MaxLive matches
    an independent recount)."""
    compiled = compile_loop(loop, MACHINE, strategy)
    report = run_all_checks(compiled)
    assert report.ok, report.render_text()


# ----------------------------------------------------------------------
# Corrupted schedules are caught (S-*)


def _flow_edge(schedule):
    graph = build_dependence_graph(schedule.loop)
    for edge in graph.edges:
        if (
            edge.kind is DepKind.FLOW
            and edge.distance == 0
            and schedule.machine.opcode_info(graph.ops[edge.src]).latency > 0
        ):
            return edge
    raise AssertionError("no intra-iteration flow edge in the kernel")


def test_mutated_cycle_slot_caught_by_s_dep():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    schedule = compiled.units[0].schedule
    edge = _flow_edge(schedule)
    # One corrupted cycle slot: the consumer now issues with its
    # producer, inside the producer's latency.
    schedule.times[edge.dst] = schedule.times[edge.src]
    assert "S-DEP" in rules_of(check_schedule(schedule))


def test_oversubscribed_row_caught_by_s_res_cap():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.BASELINE)
    schedule = compiled.units[0].schedule
    for uid in schedule.times:
        schedule.times[uid] = 0
    assert "S-RES-CAP" in rules_of(check_schedule(schedule))


def test_missing_op_caught_by_s_complete():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    schedule = compiled.units[0].schedule
    schedule.times.pop(next(iter(schedule.times)))
    assert "S-COMPLETE" in rules_of(check_schedule(schedule))


# ----------------------------------------------------------------------
# Corrupted allocations are caught (K-*)


def test_duplicate_rotating_index_caught_by_k_rotidx():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    unit = compiled.units[0]
    allocation = unit.allocation
    from repro.regalloc.allocator import register_file_of

    by_file = {}
    for op in unit.schedule.loop.body:
        if op.dest is None or op.dest.name not in allocation.rotating_indices:
            continue
        by_file.setdefault(register_file_of(op.dest), []).append(op.dest.name)
    names = next(ns for ns in by_file.values() if len(ns) >= 2)
    # One corrupted register assignment: two values of one file share a
    # rotating base.
    allocation.rotating_indices[names[1]] = allocation.rotating_indices[
        names[0]
    ]
    assert "K-ROTIDX" in rules_of(check_kernel(unit.schedule, allocation))


def test_understated_pressure_caught_by_k_pressure():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    unit = compiled.units[0]
    pressure = next(iter(unit.allocation.pressures.values()))
    pressure.max_live += 1
    assert "K-PRESSURE" in rules_of(
        check_kernel(unit.schedule, unit.allocation)
    )


# ----------------------------------------------------------------------
# Corrupted transforms are caught (V-*)


def test_dropped_transfer_op_caught_by_v_transfer():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.FULL)
    transform = compiled.units[0].transform
    body = [
        op
        for op in transform.loop.body
        if not (op.array or "").startswith(SCRATCH_PREFIX)
    ]
    assert len(body) < len(transform.loop.body), "expected transfer ops"
    corrupted = dc_replace(
        transform, loop=dc_replace(transform.loop, body=tuple(body))
    )
    assert "V-TRANSFER" in rules_of(check_vectorize(corrupted, MACHINE))


def test_dropped_alignment_merge_caught_by_v_align():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.FULL)
    transform = compiled.units[0].transform
    assert transform.n_merges > 0, "expected alignment merges"
    orig = {op.uid: op for op in transform.source.body}

    def is_load_merge(op):
        return (
            op.kind is OpKind.MERGE
            and op.is_vector
            and op.origin in orig
            and orig[op.origin].kind is OpKind.LOAD
        )

    body = tuple(op for op in transform.loop.body if not is_load_merge(op))
    corrupted = dc_replace(transform, loop=dc_replace(transform.loop, body=body))
    assert "V-ALIGN" in rules_of(check_vectorize(corrupted, MACHINE))


def test_vectorized_recurrence_caught_by_v_cycle():
    """Injecting a vector op for the reduction add — an op on a
    distance-1 carried cycle — must trip the cycle legality rule."""
    from repro.dependence.analysis import analyze_loop

    loop = dot_product()
    dep = analyze_loop(loop, MACHINE.vector_length)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    transform = transform_loop(dep, MACHINE, assignment, 2, suffix=".t")
    add = next(op for op in loop.body if op.kind is OpKind.ADD)
    fake = Operation(
        add.kind,
        add.dtype,
        dest=vector_register(add.dest, 2),
        srcs=add.srcs,
        is_vector=True,
        origin=add.uid,
    )
    corrupted = dc_replace(
        transform,
        loop=dc_replace(transform.loop, body=transform.loop.body + (fake,)),
    )
    assert "V-CYCLE" in rules_of(check_vectorize(corrupted, MACHINE))


def test_transform_without_source_is_info_skip():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    transform = dc_replace(compiled.units[0].transform, source=None)
    findings = check_vectorize(transform, MACHINE)
    assert [f.rule for f in findings] == ["V-SOURCE"]
    assert findings[0].severity is Severity.INFO


# ----------------------------------------------------------------------
# Wiring: reports, exceptions, remarks, telemetry


def test_run_translation_checks_raises_on_error():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    schedule = compiled.units[0].schedule
    edge = _flow_edge(schedule)
    schedule.times[edge.dst] = schedule.times[edge.src]
    with pytest.raises(TranslationValidationError) as excinfo:
        run_translation_checks(compiled, raise_on_error=True)
    assert not excinfo.value.report.ok
    assert compiled.check_findings > 0


def test_check_telemetry_recorded():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    report = run_translation_checks(compiled)
    assert report.ok
    assert compiled.check_ms > 0.0
    assert compiled.check_findings == 0


def test_findings_flow_through_recorder():
    with recording() as rec:
        compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
        run_all_checks(compiled)
    remarks = rec.remarks.select(pass_name="check")
    assert any(r.reason == "check-summary" for r in remarks)


def test_report_json_shape():
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    payload = run_all_checks(compiled).to_json()
    assert payload["ok"] is True
    assert payload["strategy"] == "selective"
    assert payload["findings"] == []


def test_repro_check_env_validates_in_process(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    assert compiled.check_ms > 0.0
    assert compiled.check_findings == 0


def test_repro_check_env_zero_disables(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "0")
    compiled = compile_loop(dot_product(), MACHINE, Strategy.SELECTIVE)
    assert compiled.check_ms == 0.0
