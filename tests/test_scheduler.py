"""Tests for MII bounds, the modulo reservation table, and the iterative
modulo scheduler."""

import pytest

from repro.dependence.analysis import analyze_loop
from repro.dependence.graph import DependenceGraph
from repro.ir.builder import LoopBuilder
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.ir.values import VirtualRegister, const_f64
from repro.pipeline.list_schedule import list_schedule_length
from repro.pipeline.mii import edge_delay, minimum_ii, rec_mii, res_mii
from repro.pipeline.reservation import ModuloReservationTable
from repro.pipeline.scheduler import (
    SchedulingError,
    _check_schedule,
    modulo_schedule,
)
from repro.vectorize.communication import Side
from repro.vectorize.transform import transform_loop

F64 = ScalarType.F64


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

    def test_place_and_conflict(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b, c = self._op(), self._op(), self._op()
        assert mrt.fits(a, 0)
        mrt.place(a, 0)
        assert mrt.fits(b, 0)  # second fp unit
        mrt.place(b, 0)
        assert not mrt.fits(c, 0)  # both fp units busy at II=1... slots remain

    def test_wraparound(self, paper):
        mrt = ModuloReservationTable(paper, ii=2)
        a = self._op()
        mrt.place(a, 5)
        b = self._op()
        mrt.place(b, 1)
        c = self._op()
        # cycles 1, 3, 5... all map to row 1: both fp units now busy there
        assert not mrt.fits(c, 3)
        assert mrt.fits(c, 2)

    def test_remove_frees_cells(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b = self._op(), self._op()
        mrt.place(a, 0)
        mrt.place(b, 0)
        mrt.remove(a.uid)
        assert mrt.fits(self._op(), 0)

    def test_eviction_returns_holders(self, paper):
        mrt = ModuloReservationTable(paper, ii=1)
        a, b, c = self._op(), self._op(), self._op()
        mrt.place(a, 0)
        mrt.place(b, 0)
        evicted = mrt.place_evicting(c, 0)
        assert len(evicted) == 1
        assert evicted < {a.uid, b.uid}

    def test_blocking_reservation_longer_than_ii_rejected(self, paper):
        div = Operation(
            OpKind.DIV, F64, dest=VirtualRegister("d", F64),
            srcs=(const_f64(1.0), const_f64(2.0)),
        )
        mrt = ModuloReservationTable(paper, ii=4)
        assert not mrt.fits(div, 0)  # needs 32 consecutive fp cycles


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
        """Re-place every op into a fresh MRT: must fit."""
        loop, dep = lowered(build_big_loop(), paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        mrt = ModuloReservationTable(paper, schedule.ii)
        for op in sorted(loop.body, key=lambda o: schedule.times[o.uid]):
            assert mrt.fits(op, schedule.times[op.uid])
            mrt.place(op, schedule.times[op.uid])

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
        _check_schedule(loop, dep.graph, paper, schedule.ii, schedule.times)

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
            _check_schedule(loop, dep.graph, paper, schedule.ii, times)

    def test_rejects_a_resource_overflow(self, paper):
        loop, dep = lowered(build_big_loop(), paper, factor=2)
        schedule = modulo_schedule(loop, dep.graph, paper)
        # With the dependences out of the way, only the reservation
        # replay can catch every op issuing at cycle 0.
        independent = DependenceGraph()
        for op in loop.body:
            independent.add_op(op)
        times = {op.uid: 0 for op in loop.body}
        with pytest.raises(SchedulingError, match="resource overflow"):
            _check_schedule(loop, independent, paper, schedule.ii, times)


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
        length = list_schedule_length(loop, dep.graph, paper)
        # load(3) -> mul(4) -> add(4) critical path at least
        assert length >= 11

    def test_empty_loop(self, paper):
        from repro.ir.loop import Loop

        assert list_schedule_length(Loop("e", ()), DependenceGraph(), paper) == 0

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
        length = list_schedule_length(loop, dep.graph, paper)
        # 8 loads on 2 ls units = 4 issue cycles, then a 7-add chain
        assert length >= 4 + 3 + 7 * 4 - 4
