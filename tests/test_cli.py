"""Tests for the command-line entry points."""

import pytest

from repro.compiler.__main__ import main as compiler_main
from repro.evaluation.__main__ import main as evaluation_main
from repro.evaluation.bench_io import EXPERIMENTS, collect_experiment
from repro.evaluation.experiments import Evaluator
from repro.evaluation.report import generate_report, write_report
from repro.evaluation.tables import experiment_table

DSL = """
loop cli_demo
array x(2048), y(2048), z(2048)
carry s = 0.0
do i
    t = x(i) * y(i)
    z(i) = t + x(i)
    s = s + t
end
result s
"""


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "kernel.loop"
    path.write_text(DSL)
    return str(path)


class TestCompilerCLI:
    def test_default_invocation(self, dsl_file, capsys):
        assert compiler_main([dsl_file]) == 0
        out = capsys.readouterr().out
        assert "selective on paper-vliw" in out
        assert "II/iteration" in out

    def test_all_sections(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--all", "--trip", "40"]) == 0
        out = capsys.readouterr().out
        assert "dependence analysis" in out
        assert "partition:" in out
        assert "kernel of" in out
        assert "carried s =" in out

    def test_machine_and_strategy_selection(self, dsl_file, capsys):
        assert compiler_main(
            [dsl_file, "--machine", "toy", "--strategy", "traditional"]
        ) == 0
        out = capsys.readouterr().out
        assert "traditional on figure1-toy" in out

    def test_pipeline_listing(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--pipeline", "--trip", "8"]) == 0
        out = capsys.readouterr().out
        assert "prologue" in out

    def test_stdin_input(self, dsl_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DSL))
        assert compiler_main(["-", "--strategy", "baseline"]) == 0
        assert "baseline on paper-vliw" in capsys.readouterr().out

    def test_optimize_flag(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--optimize", "--ir"]) == 0

    def test_bad_strategy_rejected(self, dsl_file):
        with pytest.raises(SystemExit):
            compiler_main([dsl_file, "--strategy", "quantum"])

    def test_stats_flag_prints_table(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "=== compilation statistics ===" in out
        assert "phase wall time" in out
        assert "compile_loop" in out
        assert "modulo_schedule" in out
        assert "kl.moves_evaluated" in out
        assert "kl.moves_accepted" in out
        assert "kl.bin_packs" in out
        assert "sched.ii_attempts" in out
        assert "regalloc.calls" in out

    def test_trace_json_flag_writes_trace(self, dsl_file, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert compiler_main([dsl_file, "--trace-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote trace to {path}" in out
        trace = json.loads(path.read_text())
        from repro.observability.export import TRACE_SCHEMA_VERSION

        assert trace["schema_version"] == TRACE_SCHEMA_VERSION
        assert trace["spans"][0]["name"] == "compile_loop"
        assert trace["spans"][0]["attrs"]["loop"] == "cli_demo"
        assert any(e["name"] == "kl.converged" for e in trace["events"])
        assert trace["counters"]["sched.loops_scheduled"] >= 1

    def test_no_stats_without_flags(self, dsl_file, capsys):
        assert compiler_main([dsl_file]) == 0
        out = capsys.readouterr().out
        assert "compilation statistics" not in out


class TestEvaluationCLI:
    def test_figure1(self, capsys):
        assert evaluation_main(["figure1", "--no-bench-json"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "1.00" in out

    def test_table_subset(self, capsys):
        assert (
            evaluation_main(
                ["table2", "--benchmarks", "101.tomcatv", "--no-bench-json"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "101.tomcatv" in out and "Selective" in out

    def test_stats_and_trace_flags(self, capsys, tmp_path):
        import json

        path = tmp_path / "eval_trace.json"
        assert (
            evaluation_main(
                [
                    "table2",
                    "--benchmarks",
                    "101.tomcatv",
                    "--no-bench-json",
                    "--stats",
                    "--trace-json",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "=== compilation statistics ===" in out
        assert "kl.moves_evaluated" in out
        trace = json.loads(path.read_text())
        names = {s["name"] for s in trace["spans"]}
        assert "compile_benchmark" in names


class TestReport:
    def test_generate_report_single_benchmark(self):
        text = generate_report(names=("101.tomcatv",))
        assert "## Table 2" in text
        assert "## Table 5" in text
        assert "101.tomcatv" in text
        assert "(1.38)" in text  # paper value rendered alongside

    def test_report_shows_every_experiment_grid(self):
        """The report renders the same grid the CLI prints, for every
        experiment: each row of ``experiment_table`` is a markdown row."""
        names = ("101.tomcatv",)
        evaluator = Evaluator()
        text = generate_report(evaluator, names=names)
        lines = set(text.splitlines())
        for experiment in EXPERIMENTS:
            data = collect_experiment(evaluator, experiment, names)["data"]
            title, headers, rows = experiment_table(experiment, data)
            assert f"## {title}" in lines
            for row in [headers] + rows:
                assert "| " + " | ".join(row) + " |" in lines, (experiment, row)

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        text = write_report(str(path), names=("101.tomcatv",))
        assert path.read_text() == text
