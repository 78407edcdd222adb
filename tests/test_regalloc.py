"""Tests for rotating-register allocation / MaxLive analysis."""

from dataclasses import replace

from repro.dependence.analysis import analyze_loop
from repro.ir.builder import LoopBuilder
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import VirtualRegister
from repro.machine.machine import RegisterFiles
from repro.pipeline.scheduler import modulo_schedule
from repro.regalloc.allocator import allocate_kernel, register_file_of
from repro.vectorize.communication import Side
from repro.vectorize.full import full_assignment
from repro.vectorize.transform import transform_loop
from tests.regalloc_spec import _live_copies

F64 = ScalarType.F64
I64 = ScalarType.I64


def schedule_of(loop, machine, vectorize=False, factor=1):
    dep = analyze_loop(loop, machine.vector_length)
    if vectorize:
        assignment = full_assignment(dep)
        factor = machine.vector_length
    else:
        assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, machine, assignment, factor)
    dep2 = analyze_loop(tr.loop, machine.vector_length)
    return modulo_schedule(tr.loop, dep2.graph, machine), dep2.graph


class TestRegisterFileOf:
    def test_scalar_files(self):
        assert register_file_of(VirtualRegister("a", F64)) == "fp"
        assert register_file_of(VirtualRegister("a", I64)) == "int"
        assert register_file_of(VirtualRegister("a", ScalarType.PRED)) == "pred"

    def test_vector_files(self):
        assert register_file_of(VirtualRegister("a", VectorType(F64, 2))) == "vfp"
        assert register_file_of(VirtualRegister("a", VectorType(I64, 2))) == "vint"


class TestLiveCopies:
    def test_short_lifetime_one_copy(self):
        # defined at 0, dead at 3, II=4: live at kernel cycles 0..2 only
        assert _live_copies(0, 3, 0, 4) == 1
        assert _live_copies(0, 3, 2, 4) == 1
        assert _live_copies(0, 3, 3, 4) == 0

    def test_cross_stage_two_copies(self):
        # lifetime spans 1.5 IIs: two rotating copies overlap at some cycles
        assert _live_copies(0, 6, 0, 4) == 2
        assert _live_copies(0, 6, 2, 4) == 1

    def test_empty_lifetime(self):
        assert _live_copies(5, 5, 0, 4) == 0


class TestAllocation:
    def test_dot_allocates_within_table1_files(self, dot_loop, paper):
        schedule, graph = schedule_of(dot_loop, paper, factor=2)
        result = allocate_kernel(schedule, graph)
        assert result.ok
        assert result.pressure("fp") >= 2

    def test_vectorized_loop_uses_vector_file(self, stream_loop, paper):
        schedule, graph = schedule_of(stream_loop, paper, vectorize=True)
        result = allocate_kernel(schedule, graph)
        assert result.ok
        assert result.pressure("vfp") >= 2

    def test_rotating_indices_unique_per_file(self, dot_loop, paper):
        schedule, graph = schedule_of(dot_loop, paper, factor=2)
        result = allocate_kernel(schedule, graph)
        assert len(set(result.rotating_indices.values())) <= len(
            result.rotating_indices
        )

    def test_invariants_pin_registers(self, saxpy_loop, paper):
        schedule, graph = schedule_of(saxpy_loop, paper)
        result = allocate_kernel(schedule, graph)
        # the constant-carried 'a' occupies one fp register persistently
        assert result.pressure("fp") >= 1

    def test_tiny_register_file_fails(self, paper):
        b = LoopBuilder("pressure")
        b.array("x", dim_sizes=(2048,))
        b.array("z", dim_sizes=(2048,))
        vals = [b.load("x", b.idx(offset=k), name=f"v{k}") for k in range(6)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.store("z", b.idx(), acc)
        loop = b.build()
        cramped = replace(paper, register_files=RegisterFiles(scalar_fp=2))
        schedule, graph = schedule_of(loop, cramped, factor=2)
        result = allocate_kernel(schedule, graph)
        assert not result.ok
        fp = result.pressures["fp"]
        assert fp.max_live > fp.capacity

    def test_driver_retries_on_allocation_failure(self, paper):
        """The driver must still produce a compiled loop when register
        pressure forces a retry at a longer II."""
        from repro.compiler.driver import compile_loop
        from repro.compiler.strategies import Strategy

        b = LoopBuilder("pressure2")
        b.array("x", dim_sizes=(2048,))
        b.array("z", dim_sizes=(2048,))
        vals = [b.load("x", b.idx(offset=k), name=f"v{k}") for k in range(6)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.store("z", b.idx(), acc)
        loop = b.build()
        cramped = replace(paper, register_files=RegisterFiles(scalar_fp=6))
        compiled = compile_loop(loop, cramped, Strategy.BASELINE)
        assert compiled.units  # did not crash; schedule produced
