"""Cross-cutting invariants: bounds, idempotence, monotonicity."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.machine.configs import paper_machine, wide_vector_machine
from repro.interp.interpreter import run_loop
from repro.interp.memory import memory_for_loop
from repro.opt.pass_manager import _fingerprint, optimize_loop
from repro.opt.passes import STANDARD_PASSES
from repro.pipeline.mii import res_mii
from repro.simulate.timing import LOOP_SETUP_CYCLES, UnitTiming
from repro.vectorize.communication import Side
from repro.vectorize.transform import transform_loop
from repro.workloads.generator import GENERATORS, generate
from tests import list_schedule_spec

MACHINE = paper_machine()

loops = st.builds(
    generate,
    archetype=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 50_000),
)


@settings(max_examples=20, deadline=None)
@given(loop=loops)
def test_resmii_lower_bounds(loop):
    """ResMII is at least every per-class occupancy bound: total reserved
    cycles of a class divided by its unit count."""
    dep = analyze_loop(loop, 2)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    lowered = transform_loop(dep, MACHINE, assignment, 1).loop
    value = res_mii(lowered, MACHINE)
    totals: dict[str, int] = {}
    for op in lowered.body:
        for use in MACHINE.opcode_info(op).uses:
            totals[use.resource] = totals.get(use.resource, 0) + use.cycles
    for name, total in totals.items():
        count = MACHINE.resource_class(name).count
        assert value >= math.ceil(total / count)


@settings(max_examples=20, deadline=None)
@given(loop=loops)
def test_list_schedule_bounds(loop):
    """The list schedule is at least as long as both the issue bound and
    the dependence critical path (checked via ResMII as a proxy)."""
    dep = analyze_loop(loop, 2)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    lowered = transform_loop(dep, MACHINE, assignment, 1)
    dep2 = analyze_loop(lowered.loop, 2)
    length = list_schedule_spec.list_schedule_length(lowered.loop, dep2.graph, MACHINE)
    assert length >= res_mii(lowered.loop, MACHINE)
    # and at least the longest single-op latency
    assert length >= max(
        MACHINE.opcode_info(op).latency for op in lowered.loop.body
    )


@settings(max_examples=15, deadline=None)
@given(loop=loops)
def test_optimizer_idempotent_and_shrinking(loop):
    once = optimize_loop(loop)
    twice = optimize_loop(once)
    assert _fingerprint(once) == _fingerprint(twice)
    assert len(once.body) + len(once.preheader) <= len(loop.body) + len(
        loop.preheader
    )


@settings(max_examples=10, deadline=None)
@given(loop=loops, seed=st.integers(0, 99))
def test_each_pass_individually_sound(loop, seed):
    """Every standard pass, applied alone, preserves semantics."""
    for p in STANDARD_PASSES:
        out = p(loop)
        m0 = memory_for_loop(loop, seed=seed)
        r0 = run_loop(loop, m0, 0, 20)
        m1 = memory_for_loop(out, seed=seed)
        r1 = run_loop(out, m1, 0, 20)
        assert m0.snapshot_user_arrays() == m1.snapshot_user_arrays(), p.__name__
        assert r0.carried == r1.carried, p.__name__


@settings(max_examples=12, deadline=None)
@given(
    ii=st.integers(1, 12),
    stages=st.integers(1, 8),
    factor=st.integers(1, 4),
    cleanup=st.integers(0, 30),
    trips=st.lists(st.integers(0, 200), min_size=2, max_size=6),
)
def test_timing_monotone_per_phase(ii, stages, factor, cleanup, trips):
    """Full monotonicity in the trip count is *not* an invariant — a trip
    just below a multiple of the factor runs entirely in the unpipelined
    cleanup loop and can legitimately cost more than the next multiple.
    What does hold: cost is monotone across multiples of the factor, and
    residual iterations only ever add to the multiple below them."""
    timing = UnitTiming(
        ii=ii,
        stages=stages,
        factor=factor,
        cleanup_cycles=max(cleanup, ii),
        preheader_cycles=0,
    )
    multiples = [timing.invocation_cycles(n * factor) for n in range(8)]
    assert multiples == sorted(multiples)
    for n in sorted(trips):
        base = timing.invocation_cycles((n // factor) * factor)
        assert timing.invocation_cycles(n) >= base
        assert timing.invocation_cycles(n) >= LOOP_SETUP_CYCLES


@settings(max_examples=10, deadline=None)
@given(
    loop=loops,
    trip=st.integers(0, 30),
    seed=st.integers(0, 1000),
)
def test_vl4_machine_equivalence(loop, trip, seed):
    """Vector length 4 exercises deeper lane replication and wider
    vector values end to end."""
    machine = wide_vector_machine(4)
    ref = memory_for_loop(loop, seed=seed)
    expected = run_loop(loop, ref, 0, trip)
    compiled = compile_loop(loop, machine, Strategy.SELECTIVE)
    mem = memory_for_loop(loop, seed=seed)
    result = compiled.execute(mem, trip)
    assert mem.snapshot_user_arrays() == ref.snapshot_user_arrays()
    for name, value in expected.carried.items():
        assert result.carried[name] == value or abs(
            result.carried[name] - value
        ) < 1e-9


# ----------------------------------------------------------------------
# Verifier invariants (duplicate definitions, live-out/carried conflicts)

import pytest

from repro.ir.loop import CarriedScalar, Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.ir.values import Constant, VirtualRegister
from repro.ir.verifier import VerificationError, verify_loop


def test_verifier_rejects_duplicate_register_object():
    t = VirtualRegister("t", ScalarType.F64)
    op = Operation(
        OpKind.COPY, ScalarType.F64, dest=t, srcs=(Constant(1.0, ScalarType.F64),)
    )
    loop = Loop(name="dup", body=(op, op))
    with pytest.raises(VerificationError, match="assigned more than once"):
        verify_loop(loop)


def test_verifier_rejects_duplicate_name_with_different_type():
    """Two SSA defs sharing a name but not a type are still duplicates;
    pure set membership over (name, type) pairs would miss this."""
    t_f = VirtualRegister("t", ScalarType.F64)
    t_i = VirtualRegister("t", ScalarType.I64)
    loop = Loop(
        name="dupname",
        body=(
            Operation(
                OpKind.COPY,
                ScalarType.F64,
                dest=t_f,
                srcs=(Constant(1.0, ScalarType.F64),),
            ),
            Operation(
                OpKind.COPY,
                ScalarType.I64,
                dest=t_i,
                srcs=(Constant(1, ScalarType.I64),),
            ),
        ),
    )
    with pytest.raises(VerificationError, match="defined more than once"):
        verify_loop(loop)


def test_verifier_rejects_liveout_shadowing_carried_exit_type():
    """A live-out register whose name is also a carried exit under a
    different type is ambiguous at loop end and must be rejected."""
    res_f = VirtualRegister("res", ScalarType.F64)
    res_i = VirtualRegister("res", ScalarType.I64)
    body = (
        Operation(
            OpKind.COPY,
            ScalarType.F64,
            dest=res_f,
            srcs=(Constant(2.0, ScalarType.F64),),
        ),
    )
    loop = Loop(
        name="shadow",
        body=body,
        carried=(CarriedScalar(res_i, res_i, 0),),
        live_out=(res_f,),
    )
    with pytest.raises(VerificationError, match="mismatched type"):
        verify_loop(loop)


def test_verifier_accepts_matching_liveout_carried_exit():
    """Sanity: the same shape with consistent types still verifies."""
    res = VirtualRegister("res", ScalarType.F64)
    acc = VirtualRegister("acc", ScalarType.F64)
    body = (
        Operation(
            OpKind.ADD, ScalarType.F64, dest=res, srcs=(acc, Constant(1.0, ScalarType.F64))
        ),
    )
    loop = Loop(
        name="ok",
        body=body,
        carried=(CarriedScalar(acc, res, 0.0),),
        live_out=(res,),
    )
    verify_loop(loop)
