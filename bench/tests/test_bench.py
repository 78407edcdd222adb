"""Self-tests of the benchmark: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, use_checkout_program

use_checkout_program()

import repro.compiler.service as service  # noqa: E402
from repro.compiler.driver import CompiledLoop  # noqa: E402

from bench.compare import compare  # noqa: E402
from bench.config import WORKLOADS, benchmark_spec  # noqa: E402
from bench.inprocess import InProcessRun  # noqa: E402
from bench.trace import WRAPPED, Tracer  # noqa: E402


def _bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_quick_run_reports_every_metric_with_its_unit(tmp_path):
    proc = _bench("run", "--seed", "3", "--quick", "--seconds", "0.5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = benchmark_spec()
    docs = {}
    for name in WORKLOADS:
        doc = json.loads((tmp_path / f"{name}.seed3.json").read_text())
        for run, catalogue in (("untraced", "end_to_end"), ("traced", "per_layer")):
            result = doc[run]["result"]
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[catalogue]}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert f"== {name} " in proc.stdout
        assert doc["env"]["seed"] == 3 and doc["env"]["passes"] >= 1
        docs[name] = {n: m["value"] for n, m in doc["traced"]["result"]["metrics"].items()}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["name"] in proc.stdout
    assert docs["gen_no_partition"]["partition.calls"] == 0
    assert docs["gen_selective"]["partition.calls"] > 0
    assert docs["serve_mixed"]["serve.cache_hits"] > 0
    assert docs["serve_mixed"]["serve.compiles"] > 0
    assert docs["spec_tables"]["selective_speedup_geomean"] > 1.0


def test_measure_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _bench(
        "measure", "--workload", "gen_selective", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_the_layer_functions():
    originals = {
        (module, attribute): getattr(importlib.import_module(module), attribute)
        for _, module, attribute, _ in WRAPPED
    }
    run = InProcessRun(WORKLOADS["spec_tables"], seed=1, quick=True)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            for (module, attribute), original in originals.items():
                assert getattr(importlib.import_module(module), attribute) is not original
            for op in run.ops:
                service.compile_one(op.request)
            raise RuntimeError("inside")
    for (module, attribute), original in originals.items():
        assert getattr(importlib.import_module(module), attribute) is original
    sample = tracer.take(1.0)
    assert sample.calls["driver"] == len(run.ops)
    assert sample.calls["partition"] == sum(op.strategy.value == "selective" for op in run.ops)
    assert sample.self_s["driver"] > 0


def test_compile_exception_counts_as_failed_op(monkeypatch):
    run = InProcessRun(WORKLOADS["gen_selective"], seed=1, quick=True)
    target = run.ops[5].request
    original = service.compile_one

    def flaky(request):
        if request is target:
            raise RuntimeError("injected")
        return original(request)

    monkeypatch.setattr(service, "compile_one", flaky)
    outcome = run.measure(passes=2)
    assert len(outcome.failures) == 2
    assert all("injected" in reason for reason in outcome.failures.reasons.values())


def test_wrong_execution_counts_as_failed_op(monkeypatch):
    original = CompiledLoop.execute

    def off_by_one(self, memory, trip_count, symbols=None):
        result = original(self, memory, trip_count, symbols)
        for data in memory.arrays.values():
            if len(data):
                data[0] = data[0] + 1
        return result

    monkeypatch.setattr(CompiledLoop, "execute", off_by_one)
    run = InProcessRun(WORKLOADS["gen_no_partition"], seed=1, quick=True)
    outcome = run.measure(passes=2)
    assert len(outcome.failures) >= 1
    assert all("memory differs" in reason for reason in outcome.failures.reasons.values())


def _doc(workload: str, **values: float) -> dict:
    spec = benchmark_spec()
    base = {"ops_per_s": 100.0, "ii_per_iter_geomean": 4.0}

    def result(catalogue: str) -> dict:
        return {
            "attempted": 100,
            "failed": 0,
            "metrics": {
                m["name"]: {"value": values.get(m["name"], base.get(m["name"], 1.0)), "unit": "u"}
                for m in spec[catalogue]
            },
        }

    return {
        "workload": workload,
        "untraced": {"result": result("end_to_end")},
        "traced": {"result": result("per_layer")},
    }


def _verdicts(a: list[dict], b: list[dict]) -> dict[str, str]:
    rows = compare({"w": a}, {"w": b}, benchmark_spec())
    return {row.metric: row.verdict for row in rows}


def test_compare_accepts_equal_runs_and_flags_regressions():
    base = [_doc("w", ops_per_s=v) for v in (100.0, 101.0, 99.0)]
    assert set(_verdicts(base, base).values()) == {"ok"}

    for drop, verdict in ((0.05, "ok"), (0.20, "regressed")):
        slower = [_doc("w", ops_per_s=v * (1 - drop)) for v in (100.0, 101.0, 99.0)]
        assert _verdicts(base, slower)["ops_per_s"] == verdict

    changed = [_doc("w", ii_per_iter_geomean=4.0001) for _ in range(3)]
    verdicts = _verdicts(base, changed)
    assert verdicts["ii_per_iter_geomean"] == "regressed"
    assert verdicts["ops_per_s"] == "ok"

    recount = [_doc("w", **{"partition.kl_probes": 2.0}) for _ in range(3)]
    assert _verdicts(base, recount)["partition.kl_probes"] == "regressed"
