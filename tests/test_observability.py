"""Tests for the observability subsystem: spans, counters, remarks, export."""

import json
from pathlib import Path

import pytest

from repro.compiler import Strategy, compile_loop
from repro.machine import paper_machine
from repro.observability import (
    Recorder,
    active_recorder,
    install,
    maybe_span,
    recorder_to_dict,
    recording,
    write_trace,
)
from repro.observability.effort import EFFORT, PARTITION_EFFORT
from repro.profiling import Profile, render_tree
from repro.workloads.livermore import k1_hydro

DOCS = Path(__file__).resolve().parents[1] / "docs"


class TestSpans:
    def test_spans_nest(self):
        rec = Recorder()
        with rec.span("outer", loop="l"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert [r.name for r in rec.tracer.roots] == ["outer"]
        outer = rec.tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.attrs == {"loop": "l"}
        assert outer.duration_ns >= sum(c.duration_ns for c in outer.children)
        assert all(c.end_ns is not None for c in outer.children)

    def test_path_reflects_open_spans(self):
        rec = Recorder()
        with rec.span("a"):
            with rec.span("b"):
                assert rec.tracer.path() == "a/b"
        assert rec.tracer.path() == ""

    def test_aggregate_counts_by_name(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("phase"):
                pass
        phase = Profile.from_recorder(rec).phases()["phase"]
        assert phase.calls == 3
        assert phase.total_ns > 0

    def test_exception_unwinds_stack(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("outer"):
                with rec.span("inner"):
                    raise ValueError
        assert rec.tracer.path() == ""
        assert all(s.end_ns is not None for s in rec.tracer.roots[0].walk())


class TestStats:
    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("c", 2)
        rec.count("c")
        assert rec.counter("c") == 3
        assert rec.counter("never") == 0

    def test_counters_reset_between_sessions(self):
        with recording() as first:
            first.count("c", 5)
        assert first.counter("c") == 5
        with recording() as second:
            pass
        assert second.counter("c") == 0
        first.reset()
        assert first.counter("c") == 0
        assert first.tracer.roots == []
        assert first.remarks.records == []


class TestDisabledMode:
    def test_no_recorder_by_default(self):
        assert active_recorder() is None

    def test_disabled_compile_records_nothing(self):
        probe = Recorder()  # never installed
        compile_loop(k1_hydro(), paper_machine(), Strategy.SELECTIVE)
        assert probe.stats.counters == {}
        assert probe.tracer.roots == []
        assert probe.remarks.records == []
        assert active_recorder() is None

    def test_maybe_span_with_none_is_shared_null(self):
        first = maybe_span(None, "a")
        second = maybe_span(None, "b", x=1)
        assert first is second  # no per-call allocation when disabled

    def test_recording_restores_previous(self):
        outer = Recorder()
        install(outer)
        try:
            with recording() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        finally:
            install(None)


class TestExport:
    def test_json_round_trip(self, tmp_path):
        with recording() as rec:
            compile_loop(k1_hydro(), paper_machine(), Strategy.SELECTIVE)
        d = recorder_to_dict(rec)
        assert json.loads(json.dumps(d)) == d
        path = tmp_path / "trace.json"
        write_trace(rec, str(path))
        assert json.loads(path.read_text()) == d

    def test_profile_tree_renders_phases_and_counters(self):
        with recording() as rec:
            compile_loop(k1_hydro(), paper_machine(), Strategy.SELECTIVE)
        tree = render_tree(Profile.from_recorder(rec), counters=True)
        assert "compile_loop" in tree
        assert "modulo_schedule" in tree
        assert "· kl.moves_evaluated = " in tree
        assert "· sched.ii_attempts = " in tree

    def test_empty_recorder_renders(self):
        tree = render_tree(Profile.from_recorder(Recorder()), counters=True)
        assert tree.splitlines()[0] == "== profile =="
        assert "(session)" in tree


class TestCompilePipelineTelemetry:
    @pytest.fixture(scope="class")
    def session(self):
        with recording() as rec:
            compiled = compile_loop(
                k1_hydro(), paper_machine(), Strategy.SELECTIVE
            )
        return rec, compiled

    def test_expected_phase_names(self, session):
        rec, _ = session
        names = {s.name for root in rec.tracer.roots for s in root.walk()}
        assert {
            "compile_loop",
            "dependence",
            "partition",
            "transform",
            "compile_unit",
            "modulo_schedule",
            "regalloc",
        } <= names

    def test_kl_and_scheduler_counters_nonzero(self, session):
        rec, _ = session
        assert rec.counter("kl.moves_evaluated") > 0
        assert rec.counter("kl.bin_packs") > 0
        assert rec.counter("kl.iterations") > 0
        assert rec.counter("sched.ii_attempts") > 0
        assert rec.counter("sched.placements") > 0
        assert rec.counter("regalloc.calls") > 0

    def test_decision_events_recorded(self, session):
        rec, compiled = session
        placements = rec.remarks.select(pass_name="partition")
        assert placements
        assert {r.loop for r in placements} == {compiled.source.name}
        # The partitioner's search effort lands on its own phase.
        partition = Profile.from_recorder(rec).phases()["compile_loop/partition"]
        for counter in PARTITION_EFFORT:
            assert partition.counters[counter.recorder] == getattr(
                compiled.partition, counter.source
            )
        scheduled = [
            r
            for r in rec.remarks.select(pass_name="scheduler")
            if r.reason == "scheduled"
        ]
        assert [r.data["ii"] for r in scheduled] == [
            unit.ii for unit in compiled.units
        ]
        assert all(
            r.data["res_mii"] <= r.data["ii"] and r.data["mii"] <= r.data["ii"]
            for r in scheduled
        )
        assert all(unit.allocation.ok for unit in compiled.units)

    def test_partition_result_carries_search_counts(self, session):
        _, compiled = session
        p = compiled.partition
        assert p.n_probes > 0
        assert p.n_bin_packs > 0
        assert p.moves >= p.moves_accepted > 0


class TestEnvFallback:
    def test_repro_profile_env_prints_tree_at_exit(self, tmp_path):
        import os
        import subprocess
        import sys

        trace_path = tmp_path / "trace.json"
        env = dict(os.environ)
        env["REPRO_PROFILE"] = "-"
        env["REPRO_TRACE"] = str(trace_path)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.compiler import compile_loop, Strategy\n"
                "from repro.machine import paper_machine\n"
                "from repro.workloads.livermore import k1_hydro\n"
                "compile_loop(k1_hydro(), paper_machine(), Strategy.SELECTIVE)\n",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("== profile ==")
        assert "compile_loop" in proc.stdout
        assert "· kl.moves_evaluated = " in proc.stdout
        trace = json.loads(trace_path.read_text())
        assert trace["counters"]["sched.loops_scheduled"] >= 1


class TestRegallocRetryTelemetry:
    def test_retry_events_emitted_under_pressure(self):
        from dataclasses import replace

        from repro.machine.machine import RegisterFiles
        from tests.test_spill import wide_loop

        machine = replace(
            paper_machine(), register_files=RegisterFiles(scalar_fp=6)
        )
        with recording() as rec:
            compile_loop(wide_loop(10), machine, Strategy.BASELINE)
        assert rec.counter("regalloc.retries") > 0
        remarks = rec.remarks.select(pass_name="regalloc")
        retries = [r for r in remarks if r.reason == "retry"]
        assert len(retries) == rec.counter("regalloc.retries")
        first = retries[0].data
        assert first["attempt"] == 1
        assert first["next_min_ii"] == first["ii"] + 1
        assert "fp" in first["overflow"]
        # The spill fallback fired and was recorded too.
        spills = [r for r in remarks if r.reason == "spill"]
        assert len(spills) == rec.counter("regalloc.spill_rounds") > 0
        assert "fp" in spills[0].data["overflow"]

    def test_unspillable_pressure_raises_descriptive_error(self):
        from dataclasses import replace

        from repro.compiler.driver import RegisterAllocationError
        from repro.ir.builder import LoopBuilder
        from repro.ir.values import const_f64
        from repro.machine.machine import RegisterFiles

        # Every fp definition is a carried exit, which spilling protects:
        # the driver has no recourse and must fail loudly, not silently
        # return an unallocatable kernel.
        b = LoopBuilder("all_carried")
        b.array("x", dim_sizes=(4096,))
        accs = [b.carried(f"a{k}", 0.0) for k in range(6)]
        for k, a in enumerate(accs):
            b.carry(f"a{k}", b.add(a, const_f64(1.5)))
        b.store("x", b.idx(), accs[0])
        machine = replace(
            paper_machine(), register_files=RegisterFiles(scalar_fp=3)
        )
        with pytest.raises(RegisterAllocationError) as err:
            compile_loop(b.build(), machine, Strategy.BASELINE, baseline_unroll=1)
        message = str(err.value)
        assert "all_carried" in message
        assert "II=" in message
        assert "fp" in message


def test_counter_catalog_lists_every_effort_counter():
    catalog = (DOCS / "observability.md").read_text(encoding="utf-8")
    for counter in EFFORT:
        assert f"| `{counter.recorder}` |" in catalog, counter.recorder
