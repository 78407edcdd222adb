"""Benchmark artifacts (``BENCH_*.json``).

Every evaluation run can leave a machine-readable trail: one
``BENCH_<experiment>.json`` per experiment, carrying the headline numbers
(speedups / IIs), the per-loop II / ResMII / RecMII breakdown, and the
compile-effort telemetry (wall ms, KL probe counts, scheduler attempts).

These files are the run's artifacts, not its gate: a run appended to the
run ledger (``--ledger``) is compared against the committed baseline
record in ``benchmarks/baseline/`` with ``python -m repro.dashboard
compare prev latest --fail-on-exact`` (see ``docs/performance.md``).
The one gate here is the oracle-gap gate, which checks a run against
the exact optimum rather than against an earlier run.

Wall-clock telemetry is recorded in the artifacts but never compared:
the corpus and the compiler are deterministic, machine speed is not.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from repro.evaluation.experiments import Evaluator, figure1_iis
from repro.observability.effort import EFFORT
from repro.workloads.spec import BENCHMARK_NAMES

BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Regression:
    """One metric that got worse than its reference value."""

    experiment: str
    metric: str
    baseline: float
    current: float

    def render(self) -> str:
        return (
            f"[{self.experiment}] {self.metric}: baseline {self.baseline:g} "
            f"-> current {self.current:g}"
        )


# ----------------------------------------------------------------------
# Collection


def telemetry_payload(
    evaluator: Evaluator, names: tuple[str, ...]
) -> dict[str, dict[str, dict[str, float]]]:
    return {
        name: {
            label: {
                "loops": t.loops,
                "wall_ms": round(t.wall_ms, 3),
                **t.effort,
                "cache_hits": t.cache_hits,
                "cache_misses": t.cache_misses,
                "check_ms": round(t.check_ms, 3),
                "check_findings": t.check_findings,
            }
            for label, t in variants.items()
        }
        for name, variants in evaluator.telemetry_rows(names).items()
    }


def compile_perf_payload(
    evaluator: Evaluator,
    names: tuple[str, ...] = BENCHMARK_NAMES,
    wall_s: float | None = None,
) -> dict[str, object]:
    """The ``BENCH_compile_perf.json`` artifact: how much compile effort
    this run spent and how it obtained the results (pool size, compile
    cache hit/miss split, wall clock).  The ``effort`` block is
    deterministic and comparable across machines; ``wall_s`` is not."""
    telemetry = telemetry_payload(evaluator, names)
    totals = {counter.name: 0 for counter in EFFORT}
    cache_hits = cache_misses = loops = 0
    for variants in telemetry.values():
        for row in variants.values():
            for counter in totals:
                totals[counter] += row[counter]
            cache_hits += row["cache_hits"]
            cache_misses += row["cache_misses"]
            loops += row["loops"]
    payload: dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "experiment": "compile_perf",
        "jobs": evaluator.jobs,
        "compile_cache": evaluator.compile_cache is not None,
        "loops": loops,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "effort": totals,
        "telemetry": telemetry,
    }
    if wall_s is not None:
        payload["wall_s"] = round(wall_s, 3)
    return payload


def payload_for(
    experiment: str,
    data: object,
    evaluator: Evaluator | None = None,
    names: tuple[str, ...] = BENCHMARK_NAMES,
) -> dict[str, object]:
    """Assemble the artifact payload for an already-computed result.

    ``figure1`` carries only its headline IIs; the tables additionally
    ride the per-loop II breakdown and compile telemetry accumulated in
    ``evaluator``.
    """
    payload: dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "experiment": experiment,
        "data": data,
    }
    if experiment != "figure1" and evaluator is not None:
        payload["loops"] = evaluator.loop_metric_rows(names)
        payload["telemetry"] = telemetry_payload(evaluator, names)
    return payload


def collect_experiment(
    evaluator: Evaluator,
    experiment: str,
    names: tuple[str, ...] = BENCHMARK_NAMES,
) -> dict[str, object]:
    """Run one experiment and assemble its artifact payload."""
    if experiment == "figure1":
        data: object = figure1_iis()
    elif experiment == "table2":
        data = evaluator.table2(names)
    elif experiment == "table3":
        data = evaluator.table3(names)
    elif experiment == "table4":
        data = evaluator.table4(names)
    elif experiment == "table5":
        data = evaluator.table5(names)
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    return payload_for(experiment, data, evaluator, names)


# ----------------------------------------------------------------------
# Artifact files


def artifact_name(experiment: str) -> str:
    return f"BENCH_{experiment}.json"


def atomic_write_json(path: str, payload: object) -> None:
    """Write ``payload`` as JSON atomically: serialize to a sibling
    tempfile, then ``os.replace``.  Sweep shards, CI gate runs, and the
    dashboard all read these files while other processes rewrite them —
    a reader must only ever see a complete old or new file, never a
    torn write (F-ATOMIC)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_bench_json(
    experiment: str, payload: dict[str, object], directory: str = "."
) -> str:
    """Write one ``BENCH_<experiment>.json`` artifact; returns its path.

    One atomic write of ``payload`` (sorted keys, one trailing newline):
    each run overwrites the artifact it produced.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, artifact_name(experiment))
    atomic_write_json(path, payload)
    return path


def oracle_gap_regressions(
    payload: dict[str, object],
) -> list[Regression]:
    """The oracle-gap gate: on every loop the oracle *certified*, the
    heuristics must match the exact optimum.

    A certified partition with ``kl_gap > 0`` or a certified unit with
    ``ii_gap > 0`` is a genuine heuristic shortfall (the oracle holds a
    witness partition/schedule that beats the compiler's), reported as a
    :class:`Regression` against a baseline of zero.  ``bounded`` and
    ``timeout`` certificates never gate — they carry no refutation.
    """
    data = payload.get("data", {})
    loops: dict[str, dict[str, object]] = data.get("loops", {})  # type: ignore[union-attr]
    regressions: list[Regression] = []
    for name, row in loops.items():
        part = row.get("partition") or {}
        if part.get("status") == "certified" and (part.get("kl_gap") or 0) > 0:
            regressions.append(
                Regression(
                    experiment="oracle_gap",
                    metric=f"{name}/kl_gap",
                    baseline=0.0,
                    current=float(part["kl_gap"]),
                )
            )
        for unit, u in (row.get("units") or {}).items():
            if u.get("status") == "certified" and (u.get("ii_gap") or 0) > 0:
                regressions.append(
                    Regression(
                        experiment="oracle_gap",
                        metric=f"{unit}/ii_gap",
                        baseline=0.0,
                        current=float(u["ii_gap"]),
                    )
                )
    return regressions


def render_oracle_gap_gate(regressions: list[Regression]) -> str:
    if not regressions:
        return "oracle gate: OK (zero gap on every certified loop)"
    lines = [f"oracle gate: {len(regressions)} certified gap(s)"]
    lines += [f"  {r.render()}" for r in regressions]
    return "\n".join(lines)
