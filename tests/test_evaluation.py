"""Tests for the experiment harness (Figure 1, Tables 2-5 machinery).

Full-suite runs live in benchmarks/; here we verify the machinery on one
small benchmark (tomcatv, 9 loops) and the motivating example.
"""

import pytest

from repro.evaluation.experiments import Evaluator, figure1_iis
from repro.evaluation.tables import (
    PAPER_FIGURE1,
    format_experiment,
    render_table,
)
from repro.observability import recording

SMALL = ("101.tomcatv",)


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator()


class TestFigure1:
    def test_matches_paper_exactly(self):
        measured = figure1_iis()
        assert measured == PAPER_FIGURE1

    def test_formatting(self):
        text = format_experiment("figure1", figure1_iis())
        assert "selective" in text and "1.00" in text


class TestEvaluator:
    def test_speedups_computed(self, evaluator):
        ev = evaluator.evaluate("101.tomcatv")
        assert ev.speedup("baseline") == 1.0
        assert ev.speedup("selective") > 1.2
        assert ev.speedup("traditional") < 1.0

    def test_serial_fraction_applied(self, evaluator):
        ev = evaluator.evaluate("101.tomcatv")
        base_loops = sum(ev.loop_cycles["baseline"])
        frac = ev.benchmark.serial_fraction
        assert ev.serial_cycles == pytest.approx(
            base_loops * frac / (1 - frac), abs=1.0
        )

    def test_compilation_cached(self, evaluator):
        first = evaluator.compiled_loops(
            "101.tomcatv", evaluator.standard_variants()[0]
        )
        second = evaluator.compiled_loops(
            "101.tomcatv", evaluator.standard_variants()[0]
        )
        assert first is second

    @staticmethod
    def _fake_pool(monkeypatch) -> list[int]:
        """Stand an in-process pool in for ``fork_pool``'s executor;
        returns the list of pool sizes created."""
        created: list[int] = []

        class FakePool:
            def __init__(self, max_workers=None, mp_context=None):
                created.append(max_workers)
                self.shutdowns = 0

            def map(self, fn, iterable, chunksize=1):
                return list(map(fn, iterable))

            def shutdown(self, wait=True):
                self.shutdowns += 1

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", FakePool
        )
        return created

    def test_worker_pool_reused_across_fanouts(self, monkeypatch):
        """One process pool serves every parallel batch; ``close`` (and
        the context manager) shuts it down exactly once."""
        created = self._fake_pool(monkeypatch)
        with Evaluator(jobs=2) as ev:
            variants = ev.standard_variants()
            ev.prewarm(SMALL, [variants[0]])
            pool = ev._pool
            assert created == [2]
            ev.prewarm(SMALL, [variants[1]])
            assert created == [2]  # second fan-out reused the pool
            assert ev._pool is pool
            # The fanned-out compilations actually landed.
            assert len(ev.compiled_loops(SMALL[0], variants[0])) == 9
        assert pool.shutdowns == 1
        assert ev._pool is None
        ev.close()  # idempotent after the context manager already closed
        assert pool.shutdowns == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_compile_benchmark_span_per_batch(self, jobs, monkeypatch):
        """Pooled or serial, every compiled (benchmark, variant) batch
        gets its own ``compile_benchmark`` span and wall time."""
        created = self._fake_pool(monkeypatch)
        with recording() as rec, Evaluator(jobs=jobs) as ev:
            variants = ev.standard_variants()[:2]
            ev.prewarm(SMALL, variants)
        assert created == ([2] if jobs > 1 else [])
        spans = [s for s in rec.tracer.roots if s.name == "compile_benchmark"]
        assert [(s.attrs["benchmark"], s.attrs["variant"]) for s in spans] == [
            (SMALL[0], v.label) for v in variants
        ]
        for variant in variants:
            assert ev.telemetry[(SMALL[0], variant.label)].wall_ms > 0

    def test_table2_rows(self, evaluator):
        rows = evaluator.table2(SMALL)
        row = rows["101.tomcatv"]
        assert set(row) == {"traditional", "full", "selective"}
        assert row["selective"] > row["full"] > row["traditional"]

    def test_table3_counts(self, evaluator):
        rows = evaluator.table3(SMALL)
        row = rows["101.tomcatv"]
        counts = row["res_mii"]
        assert row["loops"] == sum(counts.values())
        assert counts["worse"] == 0
        assert counts["better"] >= 4

    def test_table3_final_ii_never_better_than_resmii_counts(self, evaluator):
        comparisons = evaluator.loop_comparisons("101.tomcatv")
        for c in comparisons:
            for label, value in c.final_ii.items():
                assert value >= c.res_mii[label] - 1e-9

    def test_table4_communication_matters(self, evaluator):
        rows = evaluator.table4(SMALL)
        row = rows["101.tomcatv"]
        assert row["considered"] > row["ignored"]

    def test_table5_alignment_never_hurts(self, evaluator):
        rows = evaluator.table5(SMALL)
        row = rows["101.tomcatv"]
        assert row["aligned"] >= row["misaligned"] - 0.03


class TestFormatting:
    def test_render_table_alignment(self):
        text = render_table(["A", "Bee"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_table_functions(self, evaluator):
        t2 = evaluator.table2(SMALL)
        assert "101.tomcatv" in format_experiment("table2", t2)
        t3 = evaluator.table3(SMALL)
        assert "ResMII" in format_experiment("table3", t3)
        t4 = evaluator.table4(SMALL)
        assert "Considered" in format_experiment("table4", t4)
        t5 = evaluator.table5(SMALL)
        assert "Misaligned" in format_experiment("table5", t5)
