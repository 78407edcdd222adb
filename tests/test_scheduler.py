"""Tests for MII bounds, the modulo reservation table, and the iterative
modulo scheduler."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.findings import Severity
from repro.check.schedule_check import check_schedule
from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.dependence.graph import DependenceGraph
from repro.frontend import parse_loop
from repro.ir.builder import LoopBuilder
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.ir.values import VirtualRegister, const_f64
from repro.machine.configs import machine_by_name, paper_machine
from repro.pipeline.mii import edge_delay, minimum_ii, rec_mii, res_mii
from repro.pipeline.reservation import ModuloReservationTable, render_reservation_table
from repro.pipeline.scheduler import (
    SchedulingError,
    _check_schedule,
    modulo_schedule,
)
from repro.vectorize.communication import Side
from repro.vectorize.transform import transform_loop
from repro.workloads.generator import generate
from tests import list_schedule_spec
from tests.test_flat_kernels import divided_loop_strategy

F64 = ScalarType.F64


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _spec(machine, op):
    return machine.reservation_spec(machine.opcode_info(op))


def _binding_offsets(loop, machine):
    """Each body op's first entry in a flat instance binding."""
    offsets, k = {}, 0
    for op in loop.body:
        offsets[op.uid] = k
        k += len(_spec(machine, op))
    return offsets


def _with_divides(loop, *picks):
    """``loop`` with the adds and multiplies at ``picks`` (counting only
    those) turned into divides."""
    arith = [op for op in loop.body if op.kind in (OpKind.ADD, OpKind.MUL)]
    divides = {arith[p].uid for p in picks}
    return loop.with_body(
        tuple(replace(op, kind=OpKind.DIV) if op.uid in divides else op for op in loop.body)
    )


def _errors(schedule):
    return [f for f in check_schedule(schedule) if f.severity is Severity.ERROR]


def lowered(loop, machine, factor=1):
    dep = analyze_loop(loop, machine.vector_length)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, machine, assignment, factor)
    return tr.loop, analyze_loop(tr.loop, machine.vector_length)


class TestResMII:
    def test_dot_on_toy_machine(self, dot_loop, toy):
        loop, dep = lowered(dot_loop, toy)
        assert res_mii(loop, toy) == 2  # 4 ops over 3 slots

    def test_stream_on_paper_machine(self, stream_loop, paper):
        loop, dep = lowered(stream_loop, paper, factor=2)
        # 6 memory ops over 2 ls units = 3 per 2 iterations
        assert res_mii(loop, paper) == 3


class TestRecMII:
    def test_acyclic_is_one(self, stream_loop, paper):
        loop, dep = lowered(stream_loop, paper)
        # overhead self-edges force only RecMII 1
        assert rec_mii(dep.graph, paper) == 1

    def test_fp_reduction_cycle(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        # s = s + t: one fp add (latency 4) at distance 1
        assert rec_mii(dep.graph, paper) == 4

    def test_unrolled_reduction_doubles(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper, factor=2)
        assert rec_mii(dep.graph, paper) == 8

    def test_memory_recurrence(self, paper):
        b = LoopBuilder("rec")
        b.array("y", dim_sizes=(2048,))
        t = b.load("y", b.idx(offset=0), name="t")
        u = b.mul(t, const_f64(0.5), name="u")
        b.store("y", b.idx(offset=1), u)
        loop, dep = lowered(b.build(), paper)
        # load(3) + mul(4) + store(1) around a distance-1 cycle
        assert rec_mii(dep.graph, paper) == 8

    def test_minimum_ii_is_max(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        mii, res, rec = minimum_ii(loop, dep.graph, paper)
        assert mii == max(res, rec)


class TestReservationTable:
    def _op(self, kind=OpKind.ADD, dtype=F64):
        return Operation(
            kind, dtype, dest=VirtualRegister(f"r{id(object())}", dtype),
            srcs=(const_f64(1.0), const_f64(2.0)),
        )

    def _place(self, mrt, op, cycle):
        token = mrt.probe_spec(_spec(mrt.machine, op), cycle)
        assert token is not None
        mrt.commit(op.uid, token)

    def _fits(self, mrt, op, cycle):
        return mrt.probe_spec(_spec(mrt.machine, op), cycle) is not None

    def test_place_and_conflict(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b, c = self._op(), self._op(), self._op()
        self._place(mrt, a, 0)
        self._place(mrt, b, 0)  # second fp unit
        assert not self._fits(mrt, c, 0)  # both fp units busy at II=1... slots remain

    def test_wraparound(self, paper):
        mrt = ModuloReservationTable(paper, ii=2)
        self._place(mrt, self._op(), 5)
        self._place(mrt, self._op(), 1)
        c = self._op()
        # cycles 1, 3, 5... all map to row 1: both fp units now busy there
        assert not self._fits(mrt, c, 3)
        assert self._fits(mrt, c, 2)

    def test_remove_frees_cells(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b = self._op(), self._op()
        self._place(mrt, a, 0)
        self._place(mrt, b, 0)
        mrt.remove(a.uid)
        assert self._fits(mrt, self._op(), 0)

    def test_eviction_returns_holders(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b, c = self._op(), self._op(), self._op()
        self._place(mrt, a, 0)
        self._place(mrt, b, 0)
        evicted = mrt.conflicting_spec(_spec(paper, c), 0)
        assert len(evicted) == 1
        assert evicted < {a.uid, b.uid}
        for key in evicted:
            mrt.remove(key)
        self._place(mrt, c, 0)

    def test_blocking_reservation_longer_than_ii_rejected(self, paper):
        div = Operation(
            OpKind.DIV, F64, dest=VirtualRegister("d", F64),
            srcs=(const_f64(1.0), const_f64(2.0)),
        )
        mrt = ModuloReservationTable(paper, ii=4)
        assert not self._fits(mrt, div, 0)  # needs 32 consecutive fp cycles
        assert mrt.free_rows(_spec(paper, div)) == 0


class TestModuloScheduler:
    def test_reaches_resmii_on_simple_loops(self, stream_loop, paper):
        loop, dep = lowered(stream_loop, paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        assert schedule.ii == max(schedule.res_mii, schedule.rec_mii)

    def test_schedule_respects_dependences(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        for edge in dep.graph.edges:
            lhs = schedule.times[edge.dst] + schedule.ii * edge.distance
            rhs = schedule.times[edge.src] + edge_delay(edge, dep.graph, paper)
            assert lhs >= rhs

    def test_schedule_respects_resources(self, paper):
        """The independent checker, which does not read the scheduler's
        binding, finds every reservation boundable."""
        loop, dep = lowered(build_big_loop(), paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        assert _errors(schedule) == []

    def test_stage_count(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        schedule = modulo_schedule(loop, dep.graph, paper)
        assert schedule.stage_count >= 2  # load latency forces pipelining

    def test_kernel_rows_cover_all_ops(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        schedule = modulo_schedule(loop, dep.graph, paper)
        rows = schedule.kernel_rows()
        assert len(rows) == schedule.ii
        assert sum(len(r) for r in rows) == len(loop.body)

    def test_min_ii_respected(self, stream_loop, paper):
        loop, dep = lowered(stream_loop, paper)
        schedule = modulo_schedule(loop, dep.graph, paper, min_ii=9)
        assert schedule.ii >= 9

    def test_empty_body_rejected(self, paper):
        from repro.ir.loop import Loop

        with pytest.raises(SchedulingError):
            modulo_schedule(Loop("empty", ()), DependenceGraph(), paper)


class TestScheduleCheck:
    """``_check_schedule`` validates every schedule the scheduler returns;
    these pin that it rejects broken ones."""

    def test_accepts_the_scheduler_result(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        _check_schedule(
            loop, dep.graph, paper, schedule.ii, schedule.times, schedule.instances
        )

    def test_rejects_a_violated_zero_distance_edge(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        edge = next(
            e
            for e in dep.graph.edges
            if e.distance == 0 and edge_delay(e, dep.graph, paper) > 0
        )
        times = dict(schedule.times)
        # Issue the consumer one cycle before the producer's result.
        times[edge.dst] = times[edge.src] + edge_delay(edge, dep.graph, paper) - 1
        with pytest.raises(SchedulingError, match="violates"):
            _check_schedule(
                loop, dep.graph, paper, schedule.ii, times, schedule.instances
            )

    def test_rejects_a_resource_overflow(self, paper):
        loop, dep = lowered(build_big_loop(), paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        # With the dependences out of the way, only the binding check can
        # catch every op issuing at cycle 0.
        independent = DependenceGraph()
        for op in loop.body:
            independent.add_op(op)
        times = {op.uid: 0 for op in loop.body}
        with pytest.raises(SchedulingError, match="resource overflow"):
            _check_schedule(
                loop, independent, paper, schedule.ii, times, schedule.instances
            )

    def _big_schedule(self, paper):
        loop, dep = lowered(build_big_loop(), paper, factor=2)
        return loop, dep.graph, modulo_schedule(loop, dep.graph, paper)

    def test_rejects_an_instance_outside_the_class(self, paper):
        loop, graph, schedule = self._big_schedule(paper)
        # Every op's first use is an issue slot; bind one to an fp unit.
        fp_first, _ = paper.instance_layout()[1]["fp"]
        instances = (fp_first,) + schedule.instances[1:]
        with pytest.raises(SchedulingError, match="outside a class"):
            _check_schedule(loop, graph, paper, schedule.ii, schedule.times, instances)

    def test_rejects_two_ops_on_one_row_of_one_instance(self, paper):
        loop, graph, schedule = self._big_schedule(paper)
        # Two ops issued in one kernel row hold two issue slots; bind the
        # second one's slot to the first one's.
        by_row: dict[int, list[int]] = {}
        for op in loop.body:
            by_row.setdefault(schedule.times[op.uid] % schedule.ii, []).append(op.uid)
        a, b = next(uids for uids in by_row.values() if len(uids) > 1)[:2]
        offsets = _binding_offsets(loop, paper)
        instances = list(schedule.instances)
        assert instances[offsets[a]] != instances[offsets[b]]
        instances[offsets[b]] = instances[offsets[a]]
        with pytest.raises(SchedulingError, match="resource overflow"):
            _check_schedule(
                loop, graph, paper, schedule.ii, schedule.times, tuple(instances)
            )

    def test_rejects_a_binding_of_the_wrong_length(self, paper):
        loop, graph, schedule = self._big_schedule(paper)
        short, long = schedule.instances[:-1], schedule.instances + (0,)
        with pytest.raises(SchedulingError, match="no instance bound"):
            _check_schedule(loop, graph, paper, schedule.ii, schedule.times, short)
        with pytest.raises(SchedulingError, match="past the last use"):
            _check_schedule(loop, graph, paper, schedule.ii, schedule.times, long)


class TestDivideSchedules:
    """Two divides on the paper machine's two fp units, each holding its
    unit for 32 cycles: valid schedules that a greedy re-binding of the
    finished kernel in issue order rejected as a resource overflow."""

    def test_every_strategy_compiles_and_draws_its_binding(self, paper):
        source = (EXAMPLES / "divides.loop").read_text()
        names, _ = paper.instance_layout()
        for strategy in Strategy:
            for unit in compile_loop(parse_loop(source), paper, strategy).units:
                schedule = unit.schedule
                assert _errors(schedule) == [], strategy
                # The drawn cells are the cells the binding holds.
                bound: dict[tuple[str, int], str] = {}
                instances = iter(schedule.instances)
                for op in schedule.loop.body:
                    t = schedule.times[op.uid]
                    for _, _, cycles in _spec(paper, op):
                        inst = names[next(instances)]
                        for k in range(cycles):
                            bound[inst, (t + k) % schedule.ii] = f"{op.mnemonic()}.{op.uid}"
                drawn = {}
                rows = render_reservation_table(schedule).splitlines()[2:]
                for inst, line in zip(names, rows):
                    cells = line.split()[-schedule.ii:]
                    for row, cell in enumerate(cells):
                        if cell != ".":
                            drawn[inst, row] = cell
                assert drawn == bound, strategy

    @settings(max_examples=12, deadline=None)
    @given(
        loop=divided_loop_strategy(),
        machine=st.sampled_from(
            [machine_by_name(name) for name in ("paper", "vl4", "freecomm", "aligned")]
        ),
    )
    # The second and third adds or multiplies of a generated loop turned
    # into divides: rejected under baseline at cycle 131.
    @example(loop=_with_divides(generate("memory_bound", 0), 1, 2), machine=paper_machine())
    def test_generated_divide_loops_compile_to_valid_schedules(self, loop, machine):
        for strategy in Strategy:
            for unit in compile_loop(loop, machine, strategy).units:
                assert _errors(unit.schedule) == [], strategy


def build_big_loop():
    b = LoopBuilder("big")
    b.array("x", dim_sizes=(2048,))
    b.array("y", dim_sizes=(2048,))
    b.array("z", dim_sizes=(2048,))
    xi = b.load("x", b.idx(), name="xi")
    yi = b.load("y", b.idx(), name="yi")
    acc = b.mul(xi, yi, name="m0")
    for k in range(6):
        acc = b.add(b.mul(acc, xi if k % 2 else yi, name=f"m{k+1}"), acc, name=f"a{k}")
    b.store("z", b.idx(), acc)
    return b.build()


class TestListScheduler:
    def test_respects_latency_chain(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        length = list_schedule_spec.list_schedule_length(loop, dep.graph, paper)
        # load(3) -> mul(4) -> add(4) critical path at least
        assert length >= 11

    def test_empty_loop(self, paper):
        from repro.ir.loop import Loop

        empty = Loop("e", ())
        assert list_schedule_spec.list_schedule_length(empty, DependenceGraph(), paper) == 0

    def test_resource_pressure_extends_makespan(self, paper):
        b = LoopBuilder("wide")
        b.array("x", dim_sizes=(2048,))
        b.array("z", dim_sizes=(2048,))
        vals = [b.load("x", b.idx(offset=k), name=f"v{k}") for k in range(8)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.store("z", b.idx(), acc)
        loop, dep = lowered(b.build(), paper)
        length = list_schedule_spec.list_schedule_length(loop, dep.graph, paper)
        # 8 loads on 2 ls units = 4 issue cycles, then a 7-add chain
        assert length >= 4 + 3 + 7 * 4 - 4
