"""Tests for the whole-iteration-assignment extension (paper Section 6)."""

import pytest

from repro.compiler.driver import _compile_unit
from repro.dependence.analysis import analyze_loop
from repro.interp.interpreter import run_loop
from repro.interp.memory import memory_for_loop
from repro.ir.types import VectorType
from repro.ir.verifier import verify_loop
from repro.machine.configs import paper_machine
from repro.vectorize.iteration_assign import applicable, whole_iteration_transform
from repro.workloads.kernels import dot_product, stencil3, vector_scale


@pytest.fixture
def machine():
    return paper_machine()


class TestApplicability:
    def test_parallel_loop_applies(self, stream_loop):
        assert applicable(analyze_loop(stream_loop, 2))

    def test_reduction_does_not(self):
        dep = analyze_loop(dot_product(), 2)
        assert not applicable(dep)
        assert whole_iteration_transform(dep, paper_machine()) is None

    def test_extra_iterations_validated(self, stream_loop, machine):
        dep = analyze_loop(stream_loop, 2)
        with pytest.raises(ValueError):
            whole_iteration_transform(dep, machine, extra_scalar_iterations=0)


class TestTransformShape:
    def test_factor_and_widths(self, stream_loop, machine):
        dep = analyze_loop(stream_loop, 2)
        tr = whole_iteration_transform(dep, machine)
        assert tr is not None
        assert tr.factor == 3
        verify_loop(tr.loop)
        vec_dests = [
            op.dest for op in tr.loop.body if op.is_vector and op.dest is not None
        ]
        assert vec_dests
        assert all(
            isinstance(d.type, VectorType) and d.type.length == 2
            for d in vec_dests
        )

    def test_no_transfers_ever(self, stream_loop, machine):
        dep = analyze_loop(stream_loop, 2)
        tr = whole_iteration_transform(dep, machine, extra_scalar_iterations=2)
        assert tr is not None
        assert tr.factor == 4
        assert tr.n_transfers == 0

    def test_merges_forced_even_when_aligned(self, stream_loop):
        from repro.machine.configs import aligned_machine

        machine = aligned_machine()
        dep = analyze_loop(stream_loop, 2)
        tr = whole_iteration_transform(dep, machine)
        assert tr is not None
        # unroll factor 3 is not a multiple of VL=2: always misaligned
        assert tr.n_merges == 3

    def test_scalar_lane_per_op(self, stream_loop, machine):
        dep = analyze_loop(stream_loop, 2)
        tr = whole_iteration_transform(dep, machine)
        scalar_lanes = [
            op for op in tr.loop.body if op.lane is not None and op.lane == 2
        ]
        assert len(scalar_lanes) == len(stream_loop.body)


class TestSemantics:
    @pytest.mark.parametrize("kernel", [vector_scale, stencil3])
    @pytest.mark.parametrize("trip", [0, 1, 2, 3, 29, 60])
    def test_equivalent_to_original(self, kernel, trip, machine):
        loop = kernel()
        dep = analyze_loop(loop, 2)
        tr = whole_iteration_transform(dep, machine)
        assert tr is not None
        ref = memory_for_loop(loop, seed=13)
        run_loop(loop, ref, 0, trip)
        mem = memory_for_loop(loop, seed=13)
        main = trip // tr.factor
        run_loop(tr.loop, mem, 0, main)
        if trip % tr.factor:
            run_loop(tr.cleanup, mem, main * tr.factor, trip % tr.factor)
        assert ref.snapshot_user_arrays() == mem.snapshot_user_arrays()

    def test_schedulable(self, stream_loop, machine):
        dep = analyze_loop(stream_loop, 2)
        tr = whole_iteration_transform(dep, machine)
        unit = _compile_unit(tr, dep, machine)
        assert unit.schedule.ii >= 1
        assert unit.timing.factor == 3
