"""Dashboard analytics and the self-contained HTML renderer.

Covers the PR's acceptance criteria end to end:

* cold vs warm runs (same corpus, different wall/cache) compare clean —
  zero exact deltas;
* a deliberately sabotaged scheduler (the un-jittered restart variant
  always fails, so every loop costs extra attempts) surfaces as a
  ranked exact-effort regression in ``compare`` and in the rendered
  HTML, and fails the CLI gate (``compare --fail-on-exact``) after two
  real evaluation runs;
* a ``check`` block's wall time never counts as a delta; its outcome
  counts always do;
* two records that carry profiles compare phase by phase: counter
  deltas exact, phase wall times noise-gated, and never a gate;
* the rendered dashboard is one self-contained file — no scripts, no
  external URLs — whose structure matches a frozen golden skeleton
  (regenerate with ``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import json
import os
from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import ALL_STRATEGIES
from repro.dashboard import (
    compare_runs,
    metric_value,
    outliers,
    render_comparison,
    render_dashboard,
    spark_line,
    svg_sparkline,
    trend,
)
from repro.dashboard.__main__ import main as dashboard_main
from repro.evaluation import bench_io
from repro.evaluation.experiments import Evaluator
from repro.ledger import Ledger, RunRecord, record_from_payloads
from repro.machine.configs import figure1_machine
from repro.observability import recording
from repro.profiling import (
    PhaseProfile,
    Profile,
    check_profile,
    load_profile,
    write_profile,
)
from repro.workloads.kernels import dot_product

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_dashboard.html"
)

BENCH = ("101.tomcatv",)


def _evaluation_record(run_id, created_at, label, *, evaluator=None):
    """A real single-benchmark table2 run, recorded the way the CLI
    records it."""
    evaluator = evaluator or Evaluator()
    payloads = {
        "table2": bench_io.collect_experiment(evaluator, "table2", BENCH)
    }
    perf = bench_io.compile_perf_payload(evaluator, BENCH, wall_s=1.5)
    return record_from_payloads(
        payloads,
        perf,
        run_id=run_id,
        created_at=created_at,
        label=label,
        git_sha="deadbeefcafe",
        config={"benchmarks": list(BENCH)},
    )


@pytest.fixture(scope="module")
def baseline_record():
    return _evaluation_record("run-0001", "2026-08-01T00:00:00Z", "base")


class TestColdWarmClean:
    def test_cold_vs_warm_has_zero_exact_deltas(
        self, baseline_record, tmp_path
    ):
        warm_eval = Evaluator(compile_cache=str(tmp_path / "cc"))
        # Cold pass populates the cache, warm pass replays it.
        bench_io.collect_experiment(warm_eval, "table2", BENCH)
        warm_eval2 = Evaluator(compile_cache=str(tmp_path / "cc"))
        warm = _evaluation_record(
            "run-0002",
            "2026-08-02T00:00:00Z",
            "warm",
            evaluator=warm_eval2,
        )
        assert warm.cache["hits"] > 0 and warm.cache["misses"] == 0
        comparison = compare_runs(baseline_record, warm)
        assert comparison.clean, [
            d.render() for d in comparison.exact_deltas()
        ]
        # The deterministic content digests agree too.
        assert (
            warm.content_digest() != baseline_record.content_digest()
        ) is False


def _sabotaged(original):
    """A ``_try_schedule`` whose un-jittered restart variant always
    fails, so every loop burns at least one extra scheduling attempt."""

    def sabotaged(loop, graph, machine, ii, budget, jitter_seed=None,
                  *args, **kwargs):
        if jitter_seed is None:
            return None
        return original(
            loop, graph, machine, ii, budget, jitter_seed, *args, **kwargs
        )

    return sabotaged


class TestSeededRegression:
    def test_sabotaged_scheduler_ranks_as_effort_regression(
        self, baseline_record, monkeypatch, tmp_path
    ):
        import repro.pipeline.scheduler as sched_mod

        monkeypatch.setattr(
            sched_mod, "_try_schedule", _sabotaged(sched_mod._try_schedule)
        )
        mutated = _evaluation_record(
            "run-0003", "2026-08-03T00:00:00Z", "mutated"
        )
        monkeypatch.undo()

        comparison = compare_runs(baseline_record, mutated)
        assert not comparison.clean
        attempts = [
            d
            for d in comparison.effort
            if d.path.endswith("sched_attempts") and d.delta > 0
        ]
        assert attempts, render_comparison(comparison)
        # The ranking puts exact effort deltas first, wall last.
        ranked = comparison.ranked()
        assert ranked[0].kind == "effort"
        assert all(
            d.kind != "wall" or d is ranked[-1] for d in ranked
        )

        # ... and the regression surfaces in the rendered HTML too.
        ledger = Ledger(str(tmp_path / "ledger"))
        ledger.append(baseline_record)
        ledger.append(mutated)
        html = render_dashboard(ledger)
        assert "sched_attempts" in html
        assert "regressed" in html

    def test_sabotaged_scheduler_fails_the_cli_gate(
        self, monkeypatch, tmp_path, capsys
    ):
        """The gate end to end: two evaluation runs into one ledger, the
        second with the sabotaged scheduler, then ``compare
        --fail-on-exact`` — exit 1 with the effort regression first."""
        import repro.pipeline.scheduler as sched_mod
        from repro.evaluation.__main__ import main as evaluation_main

        ledger = str(tmp_path / "ledger")
        argv = [
            "table2", "--benchmarks", *BENCH, "--no-bench-json",
            "--ledger", ledger,
        ]
        assert evaluation_main(argv) == 0
        monkeypatch.setattr(
            sched_mod, "_try_schedule", _sabotaged(sched_mod._try_schedule)
        )
        assert evaluation_main(argv) == 0
        monkeypatch.undo()
        capsys.readouterr()

        assert dashboard_main(
            ["compare", "prev", "latest", "--ledger", ledger, "--fail-on-exact"]
        ) == 1
        out = capsys.readouterr().out
        ranked = out.split("-- ranked deltas (exact families first) --\n")[1]
        assert ranked.startswith("  [effort] effort.sched_attempts: ")


class TestCheckOutcomes:
    """``check`` blocks compare on their outcome counts only: the
    checker's wall time (``check_ms``) differs between any two runs."""

    @staticmethod
    def _record(**check):
        outcome = {"units": 40, "errors": 0, "findings": 0, "check_ms": 9147.69}
        return record_from_payloads(
            {"figure1": {"data": {"selective": 1.0}}},
            git_sha="deadbeef",
            check=dict(outcome, **check),
        )

    def test_check_wall_time_alone_compares_clean(self):
        comparison = compare_runs(self._record(), self._record(check_ms=10225.3))
        assert comparison.clean
        assert "0 check/oracle delta(s)" in render_comparison(comparison)

    def test_check_errors_fail(self):
        comparison = compare_runs(self._record(), self._record(errors=1))
        assert [d.path for d in comparison.exact_deltas()] == ["check.errors"]
        assert "1 check/oracle delta(s)" in render_comparison(comparison)


def _compiled_profile() -> Profile:
    """A real profile: the Figure 1 loop under every strategy."""
    with recording() as rec:
        for strategy in ALL_STRATEGIES:
            compile_loop(dot_product(), figure1_machine(), strategy)
    return Profile.from_recorder(rec)


def _leaf(path: str, total_ns: int, counters=None) -> PhaseProfile:
    name = path.rsplit("/", 1)[-1]
    return PhaseProfile(
        name=name,
        path=path,
        calls=1,
        total_ns=total_ns,
        self_ns=total_ns,
        counters=dict(counters or {}),
    )


def _profile_of(*leaves: PhaseProfile) -> Profile:
    root = PhaseProfile("(session)", "", calls=1)
    for leaf in leaves:
        root.children[leaf.name] = leaf
    root.total_ns = sum(leaf.total_ns for leaf in leaves)
    return Profile(root=root)


def _profiled(profile: Profile | None, run_id: str) -> RunRecord:
    """A record of fixed deterministic content carrying ``profile``."""
    return record_from_payloads(
        {"figure1": {"data": {"selective": 1.0}}},
        run_id=run_id,
        git_sha="deadbeef",
        profile=None if profile is None else profile.to_dict(),
    )


def _compare(a: Profile, b: Profile, **thresholds):
    return compare_runs(
        _profiled(a, "run-a"), _profiled(b, "run-b"), **thresholds
    )


class TestComparePhases:
    """``compare`` lines up two records' profiles by phase path."""

    def test_self_compare_reports_zero_phase_deltas(self):
        profile = _compiled_profile()
        comparison = _compare(profile, profile)
        assert comparison.phases == []
        assert "0 per-phase counter delta(s)" in render_comparison(comparison)

    def test_wall_noise_below_thresholds_is_insignificant(self):
        a = _profile_of(_leaf("sched", 10_000_000))
        b = _profile_of(_leaf("sched", 11_000_000))  # +10 %, +1 ms
        assert _compare(a, b, wall_rel=0.20, wall_abs_ms=1.0).phases == []

    def test_wall_change_needs_both_relative_and_absolute(self):
        # +50 % but only +0.5 ms: absolute threshold filters it.
        a = _profile_of(_leaf("sched", 1_000_000))
        b = _profile_of(_leaf("sched", 1_500_000))
        assert _compare(a, b).phases == []
        # +2 ms but only +2 %: relative threshold filters it.
        a = _profile_of(_leaf("sched", 100_000_000))
        b = _profile_of(_leaf("sched", 102_000_000))
        assert _compare(a, b).phases == []
        # +50 % and +5 ms: significant.
        a = _profile_of(_leaf("sched", 10_000_000))
        b = _profile_of(_leaf("sched", 15_000_000))
        d = {d.path: d for d in _compare(a, b).phases}["sched total_ms"]
        assert d.significant and not d.exact
        assert d.b / d.a == pytest.approx(1.5)

    def test_counter_deltas_are_exact(self):
        a = _profile_of(_leaf("sched", 5_000_000, {"sched.ii_attempts": 44}))
        b = _profile_of(_leaf("sched", 5_000_000, {"sched.ii_attempts": 45}))
        comparison = _compare(a, b)
        [d] = comparison.phases
        assert (d.path, d.a, d.b, d.exact) == (
            "sched sched.ii_attempts", 44, 45, True
        )
        assert "44 -> 45 (+1)" in render_comparison(comparison)

    def test_phase_missing_on_one_side_compares_against_zero(self):
        a = _profile_of(_leaf("sched", 5_000_000))
        b = _profile_of(
            _leaf("sched", 5_000_000),
            _leaf("oracle_certify", 9_000_000, {"oracle.partition_nodes": 7}),
        )
        by_path = {d.path: d for d in _compare(a, b).phases}
        wall = by_path["oracle_certify total_ms"]
        assert wall.a == 0 and wall.significant
        counter = by_path["oracle_certify oracle.partition_nodes"]
        assert (counter.a, counter.b) == (0, 7)

    def test_no_phase_block_unless_both_records_carry_a_profile(self):
        profiled = _profiled(_compiled_profile(), "run-profiled")
        plain = _profiled(None, "run-plain")
        # Records written before profiles were embedded hold a path.
        legacy = RunRecord.from_dict(
            dict(plain.to_dict(), run_id="run-legacy", profile="p.json")
        )
        for a, b in (
            (plain, profiled), (profiled, plain), (legacy, profiled),
            (profiled, legacy),
        ):
            comparison = compare_runs(a, b)
            assert comparison.phases is None
            text = render_comparison(comparison)
            assert "per-phase" not in text
            assert text.endswith(" significant wall change(s)")

    def test_phase_counter_delta_never_gates(self):
        a = _profile_of(_leaf("sched", 5_000_000, {"sched.ii_attempts": 44}))
        b = _profile_of(_leaf("sched", 5_000_000, {"sched.ii_attempts": 49}))
        comparison = _compare(a, b)
        assert [d.path for d in comparison.phases] == [
            "sched sched.ii_attempts"
        ]
        assert comparison.clean
        assert comparison.ranked() == []


class TestQueries:
    def test_trend_and_metric_paths_with_dotted_benchmarks(
        self, baseline_record
    ):
        value = metric_value(baseline_record, "effort.sched_attempts")
        assert value and value > 0
        speedup = metric_value(
            baseline_record, "experiments.table2.101.tomcatv.selective"
        )
        assert speedup and speedup > 1.0
        points = trend([baseline_record], "effort.sched_attempts")
        assert points[0][1] == value

    def test_spark_line_shapes(self):
        assert spark_line([]) == ""
        assert spark_line([1.0, None, 8.0]) == "▁ █"
        assert len(spark_line([2.0, 2.0, 2.0])) == 3

    def test_outliers_need_a_genuine_spike(self, baseline_record):
        import dataclasses

        runs = []
        for i in range(6):
            runs.append(
                dataclasses.replace(
                    baseline_record,
                    run_id=f"run-100{i}",
                    wall_s=1.0 + 0.01 * i,
                )
            )
        assert outliers(runs, "wall_s") == []
        runs.append(
            dataclasses.replace(
                baseline_record, run_id="run-spike", wall_s=60.0
            )
        )
        found = outliers(runs, "wall_s")
        assert [o.record.run_id for o in found] == ["run-spike"]


class _Skeleton(HTMLParser):
    """Structural skeleton: (tag, id, class) per element, plus a stack
    check that every non-void element closes."""

    VOID = {"meta", "br", "hr", "img", "input", "link", "circle"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.nodes: list[tuple[str, str, str]] = []
        self.stack: list[str] = []

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        self.nodes.append((tag, d.get("id", ""), d.get("class", "")))
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        d = dict(attrs)
        self.nodes.append((tag, d.get("id", ""), d.get("class", "")))

    def handle_endtag(self, tag):
        assert self.stack and self.stack[-1] == tag, (
            f"mis-nested </{tag}>, open stack {self.stack[-6:]}"
        )
        self.stack.pop()


def _skeleton(html: str) -> list[tuple[str, str, str]]:
    parser = _Skeleton()
    parser.feed(html)
    parser.close()
    assert parser.stack == [], f"unclosed elements: {parser.stack}"
    return parser.nodes


def _golden_ledger(tmp_path) -> Ledger:
    """A deterministic two-run ledger (fixed ids, shas, walls)."""
    ledger = Ledger(str(tmp_path / "golden-ledger"))
    corpus = {
        "alpha": {
            "alpha.L0": {"ii": 4, "res_mii": 3, "rec_mii": 2},
            "alpha.L1": {"ii": 6, "res_mii": 6, "rec_mii": 1},
        }
    }
    for run_id, created, label, attempts, wall in (
        ("run-0001", "2026-08-01T00:00:00Z", "cold", 10, 2.0),
        ("run-0002", "2026-08-02T00:00:00Z", "warm", 12, 0.5),
    ):
        payloads = {
            "table2": {
                "data": {"alpha": {"traditional": 1.0, "selective": 1.4}},
                "loops": {
                    "alpha": {
                        loop: {"selective": dict(metrics)}
                        for loop, metrics in corpus["alpha"].items()
                    }
                },
                "telemetry": {
                    "alpha": {
                        "selective": {
                            "loops": 2,
                            "wall_ms": wall * 1e3,
                            "sched_attempts": attempts,
                        }
                    }
                },
            }
        }
        perf = {
            "effort": {"sched_attempts": attempts, "kl_pack_steps": 40},
            "wall_s": wall,
            "jobs": 1,
            "cache_hits": 0,
            "cache_misses": 2,
        }
        ledger.append(
            record_from_payloads(
                payloads,
                perf,
                run_id=run_id,
                created_at=created,
                label=label,
                git_sha="deadbeefcafe",
                check={"units": 2, "errors": 0, "findings": 0},
                notes=["golden fixture run"],
            )
        )
    return ledger


class TestRenderedHTML:
    @pytest.fixture
    def golden_html(self, tmp_path) -> str:
        return render_dashboard(_golden_ledger(tmp_path))

    def test_self_contained_no_scripts_no_external_urls(self, golden_html):
        lowered = golden_html.lower()
        assert "<script" not in lowered
        assert "http://" not in lowered
        assert "https://" not in lowered
        assert "@import" not in lowered
        assert 'src="' not in lowered  # no fetched images/iframes

    def test_structure_carries_every_section(self, golden_html):
        nodes = _skeleton(golden_html)
        tags = [t for t, _, _ in nodes]
        assert tags.count("section") == 5
        assert "svg" in tags and "polyline" in tags
        assert "details" in tags and "table" in tags
        # Dark mode is selected, not flipped: both scopes present.
        assert "prefers-color-scheme: dark" in golden_html
        assert '[data-theme="dark"]' in golden_html
        assert "tabular-nums" in golden_html

    def test_regression_table_names_the_exact_delta(self, golden_html):
        assert "sched_attempts" in golden_html
        assert "regressed" in golden_html

    def test_matches_frozen_golden_skeleton(self, golden_html):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            with open(GOLDEN, "w", encoding="utf-8") as f:
                f.write(golden_html)
        with open(GOLDEN, encoding="utf-8") as f:
            frozen = f.read()
        assert _skeleton(golden_html) == _skeleton(frozen), (
            "dashboard structure changed; regenerate the golden with "
            "REPRO_REGEN_GOLDEN=1 if intentional"
        )

    def test_empty_ledger_renders_a_hint(self, tmp_path):
        html = render_dashboard(Ledger(str(tmp_path / "empty")))
        assert "--ledger" in html
        _skeleton(html)

    def test_sparkline_handles_gaps_and_flat_series(self):
        svg = svg_sparkline([1.0, None, 3.0, 3.0])
        assert svg.count("<polyline") == 1
        assert "<circle" in svg
        assert "no data" in svg_sparkline([None, None])


class TestDashboardCLI:
    @pytest.fixture
    def bench_dir(self, tmp_path):
        d = tmp_path / "bench"
        d.mkdir()
        payload = {
            "schema_version": 1,
            "experiment": "table2",
            "data": {"alpha": {"selective": 1.3}},
            "loops": {"alpha": {"alpha.L0": {"selective": {"ii": 4}}}},
            "telemetry": {
                "alpha": {"selective": {"loops": 1, "sched_attempts": 5}}
            },
        }
        (d / "BENCH_table2.json").write_text(json.dumps(payload))
        perf = {
            "schema_version": 1,
            "experiment": "compile_perf",
            "effort": {"sched_attempts": 5},
            "wall_s": 0.25,
            "jobs": 1,
            "cache_hits": 0,
            "cache_misses": 1,
        }
        (d / "BENCH_compile_perf.json").write_text(json.dumps(perf))
        return str(d)

    def test_record_list_compare_render(
        self, bench_dir, tmp_path, capsys, monkeypatch
    ):
        ledger_dir = str(tmp_path / "ledger")
        argv = ["--ledger", ledger_dir, "--bench-dir", bench_dir]
        assert dashboard_main(["record", *argv, "--label", "one"]) == 0
        assert dashboard_main(["record", *argv, "--label", "two"]) == 0
        capsys.readouterr()

        assert dashboard_main(["list", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "one" in out and "two" in out

        # Identical deterministic content: --fail-on-exact passes.
        assert (
            dashboard_main(
                [
                    "compare",
                    "--ledger",
                    ledger_dir,
                    "prev",
                    "latest",
                    "--fail-on-exact",
                ]
            )
            == 0
        )

        out_html = str(tmp_path / "dash.html")
        assert (
            dashboard_main(
                ["render", "--ledger", ledger_dir, "-o", out_html]
            )
            == 0
        )
        html = Path(out_html).read_text(encoding="utf-8")
        assert "<!doctype html>" in html
        assert "http" + "://" not in html

        # REPRO_LEDGER supplies the directory when --ledger is absent.
        monkeypatch.setenv("REPRO_LEDGER", ledger_dir)
        assert dashboard_main(["trend", "effort.sched_attempts"]) == 0
        trend_out = capsys.readouterr().out
        assert "5" in trend_out

    def test_record_without_artifacts_fails(self, tmp_path, capsys):
        code = dashboard_main(
            [
                "record",
                "--ledger",
                str(tmp_path / "ledger"),
                "--bench-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_compare_fail_on_exact_flags_a_mutation(
        self, bench_dir, tmp_path, capsys
    ):
        ledger_dir = str(tmp_path / "ledger")
        argv = ["--ledger", ledger_dir, "--bench-dir", bench_dir]
        assert dashboard_main(["record", *argv]) == 0
        perf_path = os.path.join(bench_dir, "BENCH_compile_perf.json")
        perf = json.loads(Path(perf_path).read_text())
        perf["effort"]["sched_attempts"] += 7
        Path(perf_path).write_text(json.dumps(perf))
        assert dashboard_main(["record", *argv]) == 0
        code = dashboard_main(
            [
                "compare",
                "--ledger",
                ledger_dir,
                "prev",
                "latest",
                "--fail-on-exact",
            ]
        )
        assert code == 1
        out = capsys.readouterr()
        assert "sched_attempts" in out.out

    @pytest.fixture
    def profile_path(self, tmp_path):
        path = tmp_path / "profile.json"
        write_profile(_compiled_profile(), str(path))
        return str(path)

    def _record_profiled_pair(self, bench_dir, ledger_dir, a, b) -> None:
        for profile in (a, b):
            argv = ["--ledger", ledger_dir, "--bench-dir", bench_dir]
            assert dashboard_main(["record", *argv, "--profile", profile]) == 0

    def test_self_compare_reports_zero_phase_counter_deltas(
        self, bench_dir, profile_path, tmp_path, capsys
    ):
        ledger_dir = str(tmp_path / "ledger")
        self._record_profiled_pair(
            bench_dir, ledger_dir, profile_path, profile_path
        )
        capsys.readouterr()
        assert (
            dashboard_main(["compare", "prev", "latest", "--ledger", ledger_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "(no per-phase delta)" in out
        assert "0 per-phase counter delta(s)" in out

    def test_compare_reports_phase_effort_regression(
        self, bench_dir, profile_path, tmp_path, capsys
    ):
        """Compare attributes an effort change to its phase; a per-phase
        delta informs and never fails the gate."""
        regressed = load_profile(profile_path)
        node = regressed.phases()["compile_loop/compile_unit/modulo_schedule"]
        node.counters["sched.ii_attempts"] += 5
        other = str(tmp_path / "regressed.json")
        write_profile(regressed, other)
        ledger_dir = str(tmp_path / "ledger")
        self._record_profiled_pair(bench_dir, ledger_dir, profile_path, other)
        capsys.readouterr()
        assert (
            dashboard_main(
                ["compare", "prev", "latest", "--ledger", ledger_dir,
                 "--fail-on-exact"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compile_loop/compile_unit/modulo_schedule sched.ii_attempts: " in out
        assert "(+5)" in out
        assert "1 per-phase counter delta(s)" in out

    def test_merge_subcommand_folds_shards(
        self, bench_dir, tmp_path, capsys
    ):
        shard_a = str(tmp_path / "shard-a")
        shard_b = str(tmp_path / "shard-b")
        assert (
            dashboard_main(
                ["record", "--ledger", shard_a, "--bench-dir", bench_dir]
            )
            == 0
        )
        # Second shard covers a different benchmark.
        payload = json.loads(
            Path(bench_dir, "BENCH_table2.json").read_text()
        )
        payload["data"] = {"beta": {"selective": 1.1}}
        payload["loops"] = {"beta": {"beta.L0": {"selective": {"ii": 7}}}}
        payload["telemetry"] = {
            "beta": {"selective": {"loops": 1, "sched_attempts": 3}}
        }
        Path(bench_dir, "BENCH_table2.json").write_text(
            json.dumps(payload)
        )
        perf_path = os.path.join(bench_dir, "BENCH_compile_perf.json")
        perf = json.loads(Path(perf_path).read_text())
        perf["effort"]["sched_attempts"] = 3
        Path(perf_path).write_text(json.dumps(perf))
        assert (
            dashboard_main(
                ["record", "--ledger", shard_b, "--bench-dir", bench_dir]
            )
            == 0
        )
        merged_dir = str(tmp_path / "merged")
        assert (
            dashboard_main(
                [
                    "merge",
                    "--ledger",
                    merged_dir,
                    shard_a,
                    shard_b,
                    "--label",
                    "sharded",
                ]
            )
            == 0
        )
        records = Ledger(merged_dir).records()
        assert len(records) == 1
        assert set(records[0].loops) == {"alpha", "beta"}
        assert records[0].effort["sched_attempts"] == 8


LOOP_DSL = """
loop ledgerdemo
array x(512), y(512)
carry s = 0.0
do i
    t = x(i) * y(i)
    s = s + t
end
result s
"""


class TestProfiledRecords:
    """With ``--profile`` and ``--ledger``, both CLIs embed the run's
    profile in its record; two runs of one build then compare with a
    phase block and zero per-phase counter deltas."""

    @staticmethod
    def _assert_profiled_pair(ledger_dir, capsys) -> None:
        records = Ledger(ledger_dir).records()
        assert len(records) == 2
        for record in records:
            assert check_profile(load_profile(record.profile)) == []
        comparison = compare_runs(*records)
        assert comparison.phases is not None
        assert [d for d in comparison.phases if d.exact] == []
        capsys.readouterr()
        assert (
            dashboard_main(
                ["compare", "prev", "latest", "--ledger", ledger_dir,
                 "--fail-on-exact"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "-- per-phase deltas (profiles; informational) --" in out
        assert "0 per-phase counter delta(s)" in out

    def test_evaluation_records_carry_profiles(self, tmp_path, capsys):
        from repro.evaluation.__main__ import main as evaluation_main

        ledger_dir = str(tmp_path / "ledger")
        argv = [
            "table2", "--benchmarks", *BENCH, "--no-bench-json",
            "--profile", "--ledger", ledger_dir,
        ]
        assert evaluation_main(argv) == 0
        assert evaluation_main(argv) == 0
        self._assert_profiled_pair(ledger_dir, capsys)

    def test_compiler_records_carry_profiles(self, tmp_path, capsys):
        from repro.compiler.__main__ import main as compiler_main

        src = tmp_path / "k.loop"
        src.write_text(LOOP_DSL)
        ledger_dir = str(tmp_path / "ledger")
        argv = [str(src), "--profile", "--ledger", ledger_dir]
        assert compiler_main(argv) == 0
        assert compiler_main(argv) == 0
        self._assert_profiled_pair(ledger_dir, capsys)
