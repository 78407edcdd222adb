"""The deterministic profiler, its CLI and the progress monitor.  Two
runs' profiles are compared by ``dashboard compare`` (see
``tests/test_dashboard.py``)."""

from __future__ import annotations

import io
import json

import pytest

from repro.compiler.driver import CompiledLoop, compile_loop
from repro.compiler.service import effort_counters
from repro.compiler.strategies import Strategy
from repro.evaluation.experiments import CompileTelemetry, Evaluator
from repro.machine.configs import figure1_machine, paper_machine
from repro.observability import recording
from repro.observability.effort import EFFORT
from repro.profiling import (
    Profile,
    ProgressMonitor,
    check_profile,
    load_profile,
    render_tree,
    to_collapsed,
    to_speedscope,
    write_profile,
)
from repro.profiling.__main__ import main as profiling_main
from repro.workloads.kernels import dot_product
from repro.workloads.spec import build_benchmark

FIGURE1_STRATEGIES = (
    Strategy.BASELINE,
    Strategy.TRADITIONAL,
    Strategy.FULL,
    Strategy.SELECTIVE,
)


def _record_compiles(
    jobs,
) -> tuple[Profile, CompileTelemetry, list[CompiledLoop]]:
    """Compile each ``(loop, machine, strategy, baseline_unroll)`` inside
    one recording session: the profile, the flat telemetry it must
    match, and the compiled loops."""
    telemetry = CompileTelemetry()
    compiled_loops = []
    with recording() as rec:
        for loop, machine, strategy, unroll in jobs:
            compiled = compile_loop(loop, machine, strategy, baseline_unroll=unroll)
            telemetry.absorb(compiled)
            compiled_loops.append(compiled)
    return Profile.from_recorder(rec), telemetry, compiled_loops


def _figure1_jobs() -> list:
    machine = figure1_machine()
    loop = dot_product()
    return [
        (loop, machine, s, 1 if s is Strategy.BASELINE else None)
        for s in FIGURE1_STRATEGIES
    ]


def figure1_profile() -> tuple[Profile, CompileTelemetry]:
    """The Figure 1 example under every strategy, in one session."""
    profile, telemetry, _ = _record_compiles(_figure1_jobs())
    return profile, telemetry


def _assert_effort_agrees(profile, telemetry, compiled_loops) -> None:
    """The acceptance invariant, for every registry counter: the
    recorder total (summed over the profile's per-phase attribution)
    equals the flat CompileTelemetry total and the sum of the compiled
    loops' own effort exactly.  (Holds while no compile needs a regalloc
    II-retry: a retried schedule's attempts reach the recorder but not
    the compiled loop, which carries only the final schedule.)"""
    totals = profile.counter_totals()
    for counter in EFFORT:
        summed = sum(
            effort_counters(c).get(counter.name, 0) for c in compiled_loops
        )
        assert (
            totals.get(counter.recorder, 0)
            == telemetry.effort[counter.name]
            == summed
        ), f"{counter.recorder} / {counter.name} disagree"


class TestProfileFromRecorder:
    def test_figure1_effort_counters_match_flat_telemetry_exactly(self):
        _assert_effort_agrees(*_record_compiles(_figure1_jobs()))

    def test_tomcatv_effort_counters_match_flat_telemetry_exactly(self):
        # Corpus scale: 101.tomcatv's nine loops under all four
        # strategies, traditional's distributed units included.
        machine = paper_machine()
        loops = [wl.loop for wl in build_benchmark("101.tomcatv").loops]
        profile, telemetry, compiled_loops = _record_compiles(
            (loop, machine, s, None) for s in FIGURE1_STRATEGIES for loop in loops
        )
        assert telemetry.loops == 36
        assert any(len(c.units) > 1 for c in compiled_loops)
        assert all(telemetry.effort.values())
        _assert_effort_agrees(profile, telemetry, compiled_loops)

    def test_profile_counters_reproduce_flat_registry(self):
        machine = figure1_machine()
        with recording() as rec:
            compile_loop(dot_product(), machine, Strategy.SELECTIVE)
            rec.count("outside.any_span", 3)
        profile = Profile.from_recorder(rec)
        assert profile.counter_totals() == rec.stats.counters
        # Counters fired outside spans land on the synthetic root.
        assert profile.root.counters["outside.any_span"] == 3

    def test_invariants_hold_and_self_times_sum_to_total(self):
        profile, _ = figure1_profile()
        assert check_profile(profile) == []
        assert profile.self_ns_sum() == profile.total_ns

    def test_phase_paths_are_unique_and_nested(self):
        profile, _ = figure1_profile()
        phases = profile.phases()
        assert "compile_loop" in phases
        assert "compile_loop/compile_unit/modulo_schedule" in phases
        sched = phases["compile_loop/compile_unit/modulo_schedule"]
        assert sched.counters.get("sched.ii_attempts", 0) > 0

    def test_json_round_trip(self, tmp_path):
        profile, _ = figure1_profile()
        path = tmp_path / "p.json"
        write_profile(profile, str(path))
        loaded = load_profile(str(path))
        assert loaded.to_dict() == profile.to_dict()

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "not_a_profile.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="kind"):
            load_profile(str(path))


class TestExporters:
    def test_render_tree_lists_phases_and_counters(self):
        profile, _ = figure1_profile()
        text = render_tree(profile, counters=True)
        assert "compile_loop" in text
        assert "modulo_schedule" in text
        assert "sched.ii_attempts" in text
        assert "100.0%" in text

    def test_collapsed_stack_weights_are_self_times(self):
        profile, _ = figure1_profile()
        total_us = 0
        for line in to_collapsed(profile).splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack
            total_us += int(weight)
        # Collapsed weights are floor-divided to microseconds, so they
        # can only undershoot the exact nanosecond self-time sum.
        assert 0 < total_us * 1000 <= profile.self_ns_sum()

    def test_speedscope_document_shape(self):
        profile, _ = figure1_profile()
        doc = to_speedscope(profile)
        assert doc["$schema"].startswith("https://www.speedscope.app")
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert len(prof["samples"]) == len(prof["weights"])
        assert sum(prof["weights"]) == prof["endValue"]


class TestProgressMonitor:
    def _monitor(self, **kwargs):
        clock = iter(float(t) for t in range(0, 10_000))
        return ProgressMonitor(clock=lambda: next(clock), **kwargs)

    def test_counts_eta_and_cache_rate(self):
        monitor = self._monitor(total=10, interval_s=1e9)
        for i in range(4):
            monitor.tick(f"L{i}", "selective", wall_ms=100.0, cache_hit=i % 2 == 0)
        assert monitor.done == 4
        assert monitor.cache_hit_rate == pytest.approx(0.5)
        # Fake clock ticks 1 s per call; EMA of a constant rate is exact.
        assert monitor.eta_s() == pytest.approx(6 * monitor._ema_s)
        snap = monitor.snapshot()
        assert snap["done"] == 4 and snap["total"] == 10
        assert snap["eta_s"] is not None

    def test_stragglers_keep_the_slowest(self):
        monitor = self._monitor(stragglers=2)
        for i, wall in enumerate([5.0, 50.0, 1.0, 30.0]):
            monitor.tick(f"L{i}", "full", wall_ms=wall)
        assert monitor.stragglers() == [("L1/full", 50.0), ("L3/full", 30.0)]

    def test_per_strategy_effort_accumulates(self):
        monitor = self._monitor()
        monitor.tick("L0", "selective", effort={"kl_pack_steps": 100})
        monitor.tick("L1", "selective", effort={"kl_pack_steps": 20})
        monitor.tick("L0", "baseline", effort={"sched_attempts": 2})
        assert monitor.effort_by_strategy == {
            "selective": {"kl_pack_steps": 120},
            "baseline": {"sched_attempts": 2},
        }

    def test_heartbeats_respect_interval_and_reach_both_sinks(self, tmp_path):
        stream = io.StringIO()
        json_path = tmp_path / "progress.jsonl"
        monitor = self._monitor(
            total=6, stream=stream, json_path=str(json_path), interval_s=2.5
        )
        for i in range(6):
            monitor.tick(f"L{i}", "selective", wall_ms=10.0)
        monitor.finish()
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert lines and all(ln.startswith("[progress]") for ln in lines)
        assert "6/6 loops (100.0%)" in lines[-1]
        payloads = [
            json.loads(ln) for ln in json_path.read_text().splitlines()
        ]
        assert payloads[-1]["done"] == 6
        assert payloads[-1]["stragglers"][0]["wall_ms"] == 10.0
        # One tick per clock second, 2.5 s interval: not every tick emits.
        assert len(payloads) < 6 + 1

    def test_explicit_progress_ignores_tty_state(self):
        stream = io.StringIO()  # not a terminal
        monitor = self._monitor(total=2, stream=stream, interval_s=0.0)
        monitor.tick("L0", "selective")
        monitor.finish()
        assert "[progress]" in stream.getvalue()

    def test_evaluator_ticks_progress_including_cache_hits(self, tmp_path):
        monitor = ProgressMonitor(stream=None, interval_s=1e9)
        evaluator = Evaluator(
            compile_cache=str(tmp_path / "cache"), progress=monitor
        )
        evaluator.prewarm(("101.tomcatv",))
        first_total = monitor.total
        assert monitor.done == first_total > 0
        assert monitor.cache_hits == 0
        assert "selective" in monitor.effort_by_strategy
        # A second evaluator over the same cache ticks pure hits.
        warm = ProgressMonitor(stream=None, interval_s=1e9)
        Evaluator(
            compile_cache=str(tmp_path / "cache"), progress=warm
        ).prewarm(("101.tomcatv",))
        assert warm.done == warm.cache_hits == first_total


class TestProfilingCLI:
    @pytest.fixture
    def profile_path(self, tmp_path):
        profile, _ = figure1_profile()
        path = tmp_path / "profile.json"
        write_profile(profile, str(path))
        return str(path)

    def test_show(self, profile_path, capsys):
        assert profiling_main(["show", profile_path, "--counters"]) == 0
        out = capsys.readouterr().out
        assert "compile_loop" in out and "sched.ii_attempts" in out

    def test_check(self, profile_path, capsys):
        assert profiling_main(["check", profile_path]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_diff_subcommand_is_gone(self, profile_path):
        # Two runs' profiles are compared by ``dashboard compare``.
        with pytest.raises(SystemExit) as exc:
            profiling_main(["diff", profile_path, profile_path])
        assert exc.value.code == 2

    def test_export_speedscope_and_collapsed(
        self, profile_path, tmp_path, capsys
    ):
        out_path = tmp_path / "p.speedscope.json"
        assert (
            profiling_main(
                ["export", profile_path, "--format", "speedscope",
                 "-o", str(out_path)]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["profiles"][0]["type"] == "sampled"
        assert profiling_main(["export", profile_path, "--format", "collapsed"]) == 0
        out = capsys.readouterr().out
        assert any(";" in line for line in out.splitlines() if line[:1].isalpha())


class TestCLIIntegration:
    def test_compiler_profile_flag_covers_check_and_oracle(
        self, tmp_path, capsys
    ):
        from repro.compiler.__main__ import main as compiler_main

        src = tmp_path / "k.loop"
        src.write_text(
            "loop profdemo\n"
            "array x(512), y(512)\n"
            "carry s = 0.0\n"
            "do i\n"
            "    t = x(i) * y(i)\n"
            "    s = s + t\n"
            "end\n"
            "result s\n"
        )
        path = tmp_path / "profile.json"
        assert (
            compiler_main(
                [str(src), "--check", "--oracle", "--profile", str(path)]
            )
            == 0
        )
        profile = load_profile(str(path))
        assert check_profile(profile) == []
        phases = profile.phases()
        assert "check" in phases
        assert "oracle_certify" in phases
        assert phases["check"].counters.get("check.units_checked", 0) >= 1
        assert (
            phases["oracle_certify"]
            .cumulative_counters()
            .get("oracle.partition_runs", 0)
            >= 1
        )

    def test_evaluation_profile_and_progress_flags(self, tmp_path, capsys):
        from repro.evaluation.__main__ import main as evaluation_main

        path = tmp_path / "eval_profile.json"
        progress_path = tmp_path / "progress.jsonl"
        assert (
            evaluation_main(
                [
                    "table2",
                    "--benchmarks",
                    "101.tomcatv",
                    "--no-bench-json",
                    "--profile",
                    str(path),
                    "--progress-json",
                    str(progress_path),
                ]
            )
            == 0
        )
        profile = load_profile(str(path))
        assert check_profile(profile) == []
        payloads = [
            json.loads(ln)
            for ln in progress_path.read_text().splitlines()
        ]
        assert payloads[-1]["done"] == payloads[-1]["total"] > 0
