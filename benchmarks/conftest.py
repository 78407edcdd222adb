"""Shared state for the benchmark harness.

A single session-scoped :class:`~repro.evaluation.experiments.Evaluator`
caches compiled loops, so regenerating all tables costs one compilation
sweep of the corpus rather than one per table.

When ``REPRO_BENCH_DIR`` names a directory (created if missing), a run
of the paper experiments writes one ``BENCH_<table>.json`` artifact per
experiment there (schema in :mod:`repro.evaluation.bench_io`) so the
numbers can be archived; ``python -m repro.dashboard record`` turns a
directory of them into a run-ledger record.  Unset or empty, it writes
nothing.  The regression gate itself compares ``python -m
repro.evaluation --ledger`` runs against the committed ledger in
``benchmarks/baseline/``.
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation import bench_io
from repro.evaluation.experiments import Evaluator

_EVALUATOR: Evaluator | None = None

#: experiment name -> result data, filled by ``pedantic`` as tests run.
_RESULTS: dict[str, object] = {}

#: experiment riding each timed callable (bound-method / function name).
_EXPERIMENT_BY_FN = {
    "figure1_iis": "figure1",
    "table2": "table2",
    "table3": "table3",
    "table4": "table4",
    "table5": "table5",
}


@pytest.fixture(scope="session")
def evaluator():
    global _EVALUATOR
    if _EVALUATOR is None:
        _EVALUATOR = Evaluator()
    return _EVALUATOR


def pedantic(benchmark, fn, *args):
    """Run a heavyweight experiment exactly once under pytest-benchmark
    timing (the experiments are deterministic; repetition buys nothing)."""
    result = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
    experiment = _EXPERIMENT_BY_FN.get(getattr(fn, "__name__", ""))
    if experiment is not None:
        _RESULTS[experiment] = result
    return result


def pytest_sessionfinish(session, exitstatus):
    if not _RESULTS:
        return
    directory = os.environ.get("REPRO_BENCH_DIR")
    if not directory:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    for experiment in sorted(_RESULTS):
        payload = bench_io.payload_for(
            experiment, _RESULTS[experiment], _EVALUATOR
        )
        path = bench_io.write_bench_json(experiment, payload, directory)
        if reporter is not None:
            reporter.write_line(f"wrote {path}")
