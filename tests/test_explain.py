"""Tests for schedule explainability: MII provenance (pressure tables,
critical cycles), remark emission, the ``--explain`` CLI, and how
``BENCH_*.json`` payloads, recorded in the run ledger, meet the
regression gate (``dashboard compare --fail-on-exact``)."""

import json

import pytest

from repro.compiler.__main__ import main as compiler_main
from repro.dashboard.__main__ import main as dashboard_main
from repro.dependence.analysis import analyze_loop
from repro.dependence.graph import DepEdge, DependenceGraph, DepKind, Via
from repro.evaluation import bench_io
from repro.evaluation.__main__ import main as evaluation_main
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.ir.values import VirtualRegister, const_f64
from repro.ledger import Ledger, record_from_payloads
from repro.observability import recording
from repro.pipeline.mii import (
    DependenceCycleError,
    RecMII,
    ResMII,
    rec_mii,
    res_mii,
)
from repro.pipeline.scheduler import modulo_schedule
from repro.vectorize.communication import Side
from repro.vectorize.transform import transform_loop

F64 = ScalarType.F64

DSL = """
loop explain_demo
array x(2048), y(2048), z(2048)
carry s = 0.0
do i
    t = x(i) * y(i)
    z(i) = t + x(i)
    s = s + t
end
result s
"""


def _op(kind=OpKind.ADD, name="r"):
    return Operation(
        kind,
        F64,
        dest=VirtualRegister(name, F64),
        srcs=(const_f64(1.0), const_f64(2.0)),
    )


def _graph(*ops):
    graph = DependenceGraph()
    for op in ops:
        graph.add_op(op)
    return graph


def lowered(loop, machine):
    dep = analyze_loop(loop, machine.vector_length)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, machine, assignment, 1)
    return tr.loop, analyze_loop(tr.loop, machine.vector_length)


class TestRecMIIEdgeCases:
    def test_empty_graph(self, paper):
        rec = rec_mii(DependenceGraph(), paper)
        assert rec == 1
        assert rec.cycle == ()
        assert rec.describe_cycle() == "(no recurrence)"

    def test_single_self_edge_distance_one(self, paper):
        op = _op()
        graph = _graph(op)
        graph.add_edge(
            DepEdge(op.uid, op.uid, DepKind.FLOW, Via.CARRIED, distance=1)
        )
        latency = paper.opcode_info(op).latency
        rec = rec_mii(graph, paper)
        assert rec == latency
        assert rec.cycle == (op.uid,)
        assert rec.cycle_delay == latency
        assert rec.cycle_distance == 1
        assert rec.describe_cycle(graph).startswith(f"{op.uid}:")

    def test_anti_self_edge_is_free(self, paper):
        # Anti dependences admit same-cycle issue: a lone anti recurrence
        # imposes no bound beyond II=1 and yields no critical cycle.
        op = _op()
        graph = _graph(op)
        graph.add_edge(
            DepEdge(op.uid, op.uid, DepKind.ANTI, Via.MEMORY, distance=1)
        )
        rec = rec_mii(graph, paper)
        assert rec == 1
        assert rec.cycle == ()

    def test_anti_zero_delay_on_cycle_path(self, paper):
        # flow a->b within the iteration, anti b->a one iteration later:
        # the anti leg contributes distance but zero delay, so the bound
        # is just a's latency.
        a, b = _op(), _op(OpKind.MUL)
        graph = _graph(a, b)
        graph.add_edge(
            DepEdge(a.uid, b.uid, DepKind.FLOW, Via.REGISTER, distance=0)
        )
        graph.add_edge(
            DepEdge(b.uid, a.uid, DepKind.ANTI, Via.MEMORY, distance=1)
        )
        rec = rec_mii(graph, paper)
        assert rec == paper.opcode_info(a).latency
        assert set(rec.cycle) == {a.uid, b.uid}
        assert rec.cycle_distance == 1

    def test_zero_distance_cycle_raises_named_diagnostic(self, paper):
        a, b = _op(), _op(OpKind.MUL)
        graph = _graph(a, b)
        graph.add_edge(
            DepEdge(a.uid, b.uid, DepKind.FLOW, Via.REGISTER, distance=0)
        )
        graph.add_edge(
            DepEdge(b.uid, a.uid, DepKind.FLOW, Via.REGISTER, distance=0)
        )
        with pytest.raises(DependenceCycleError) as exc:
            rec_mii(graph, paper)
        assert set(exc.value.cycle) == {a.uid, b.uid}
        message = str(exc.value)
        assert "zero-distance cycle" in message
        assert f"{a.uid}:{a.mnemonic()}" in message
        assert f"{b.uid}:{b.mnemonic()}" in message
        # Still a RuntimeError for callers catching the old type.
        assert isinstance(exc.value, RuntimeError)


class TestResMIIProvenance:
    def test_pressure_table_and_bottleneck(self, dot_loop, toy):
        loop, _ = lowered(dot_loop, toy)
        res = res_mii(loop, toy)
        assert res == 2
        assert isinstance(res, ResMII)
        assert res.bottleneck in res.pressure
        assert res.pressure[res.bottleneck] == max(res.pressure.values())
        assert res.pressure[res.bottleneck] == 2
        # pressure_rows renders most-loaded-first
        rows = res.pressure_rows()
        assert rows[0][1] == max(w for _, w in rows)

    def test_empty_body_has_no_bottleneck(self, paper):
        from repro.ir.loop import Loop

        res = res_mii(Loop(name="empty", body=()), paper)
        assert res == 1
        assert res.bottleneck is None


class TestSchedulerRemarks:
    def test_rec_bound_remark_names_cycle(self, dot_loop, paper):
        loop, dep = lowered(dot_loop, paper)
        with recording() as recorder:
            schedule = modulo_schedule(loop, dep.graph, paper)
        rec = schedule.rec_mii
        assert isinstance(rec, RecMII)
        assert rec > schedule.res_mii  # dot product is recurrence-limited
        remarks = recorder.remarks.select(pass_name="scheduler")
        bounds = [r for r in remarks if r.reason == "rec-bound"]
        assert len(bounds) == 1
        message = bounds[0].message
        for uid in rec.cycle:
            assert f"{uid}:" in message
        assert bounds[0].data["cycle"] == list(rec.cycle)
        scheduled = [r for r in remarks if r.reason == "scheduled"]
        assert len(scheduled) == 1

    def test_res_bound_remark_names_bottleneck(self, stream_loop, paper):
        loop, dep = lowered(stream_loop, paper)
        with recording() as recorder:
            schedule = modulo_schedule(loop, dep.graph, paper)
        assert schedule.res_mii >= schedule.rec_mii
        remarks = recorder.remarks.select(pass_name="scheduler")
        bounds = [r for r in remarks if r.reason == "res-bound"]
        assert len(bounds) == 1
        assert schedule.res_mii.bottleneck in bounds[0].message

    def test_no_recorder_no_remarks(self, dot_loop, paper):
        # Remark emission is recording-scoped; the bare path stays silent
        # and the schedule is identical.
        loop, dep = lowered(dot_loop, paper)
        schedule = modulo_schedule(loop, dep.graph, paper)
        with recording() as recorder:
            recorded = modulo_schedule(loop, dep.graph, paper)
        assert schedule.ii == recorded.ii
        assert recorder.remarks.records


class TestExplainCLI:
    @pytest.fixture
    def dsl_file(self, tmp_path):
        path = tmp_path / "kernel.loop"
        path.write_text(DSL)
        return str(path)

    def test_explain_report_sections(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--explain"]) == 0
        out = capsys.readouterr().out
        # loop header with trip count from --trip default
        assert "loop explain_demo" in out
        assert "trip 200" in out
        # every strategy gets a section
        for label in ("baseline", "traditional", "full", "selective"):
            assert f"== strategy {label}:" in out
        # ResMII pressure table with bottleneck marker
        assert "pressure table" in out
        assert "<- bottleneck" in out
        # RecMII critical cycle names ops
        assert "critical cycle" in out
        assert ":add" in out
        # partition reason codes and reservation table
        assert "partition decisions:" in out
        assert "ResMII bottleneck resource" in out
        # strategy comparison verdict
        assert "== strategy comparison ==" in out
        assert "[selective-" in out

    def test_explain_workload_loop_unknown(self, capsys):
        assert evaluation_main(["--explain", "no.such.L0"]) == 2
        assert "unknown loop" in capsys.readouterr().err


def _payloads(ii=2.0, speedup=1.2):
    """Minimal synthetic artifact payloads for gate tests."""
    return {
        "figure1": {
            "schema_version": bench_io.BENCH_SCHEMA_VERSION,
            "experiment": "figure1",
            "data": {"modulo": 2.0, "selective": ii},
        },
        "table2": {
            "schema_version": bench_io.BENCH_SCHEMA_VERSION,
            "experiment": "table2",
            "data": {"bench": {"selective": speedup}},
            "loops": {
                "bench": {
                    "bench.L0": {
                        "selective": {
                            "ii": ii,
                            "res_mii": 1.0,
                            "rec_mii": 1.0,
                        }
                    }
                }
            },
            "telemetry": {},
        },
    }


def _record(payloads):
    return record_from_payloads(payloads, git_sha="deadbeef")


def _gate(tmp_path, baseline, current):
    """Record ``baseline`` then ``current`` in one ledger and run the
    gate over the pair; returns its exit code."""
    ledger = Ledger(str(tmp_path / "ledger"))
    ledger.append(_record(baseline))
    ledger.append(_record(current))
    return dashboard_main(
        ["compare", "prev", "latest", "--ledger", ledger.root, "--fail-on-exact"]
    )


class TestBenchIO:
    def test_artifact_round_trip(self, tmp_path):
        payloads = _payloads()
        path = bench_io.write_bench_json(
            "table2", payloads["table2"], str(tmp_path)
        )
        assert path.endswith("BENCH_table2.json")
        with open(path, encoding="utf-8") as f:
            assert json.load(f) == payloads["table2"]

    def test_baseline_round_trip(self, tmp_path):
        """The baseline is one ledger record built from the payloads."""
        ledger = Ledger(str(tmp_path / "baseline"))
        ledger.append(_record(_payloads()))
        (record,) = ledger.records()
        assert ledger.warnings == []
        assert record.experiments == {
            name: payload["data"] for name, payload in _payloads().items()
        }
        assert record.loops == _payloads()["table2"]["loops"]

    def test_identical_run_passes(self, tmp_path):
        assert _gate(tmp_path, _payloads(), _payloads()) == 0

    def test_improvement_fails(self, tmp_path, capsys):
        """The gate is exact both ways: a better II or speedup is a
        changed result too, and lands with a refreshed baseline."""
        assert _gate(tmp_path, _payloads(), _payloads(ii=1.0, speedup=1.5)) == 1
        assert "[ii] loop.bench.bench.L0.selective.ii: 2 -> 1" in (
            capsys.readouterr().out
        )

    def test_worsened_ii_fails(self, tmp_path, capsys):
        assert _gate(tmp_path, _payloads(), _payloads(ii=3.0)) == 1
        out = capsys.readouterr().out
        assert "experiments.figure1.selective: 2 -> 3" in out
        assert "[ii] loop.bench.bench.L0.selective.ii: 2 -> 3" in out

    def test_speedup_drop_fails(self, tmp_path, capsys):
        assert _gate(tmp_path, _payloads(), _payloads(speedup=1.19)) == 1
        out = capsys.readouterr().out
        assert "experiments.table2.bench.selective: 1.2 -> 1.19" in out
        assert "0 II delta(s), 1 speedup drift(s)" in out

    def test_missing_experiment_fails(self, tmp_path):
        current = {"figure1": _payloads()["figure1"]}
        assert _gate(tmp_path, _payloads(), current) == 1
