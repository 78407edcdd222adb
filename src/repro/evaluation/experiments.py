"""Experiment runners for the paper's evaluation.

``Evaluator`` compiles every loop of the synthetic SPEC corpus under each
strategy (memoized) and aggregates:

* **Table 2** — whole-benchmark speedup over modulo scheduling for
  traditional, full, and selective vectorization;
* **Table 3** — per-loop ResMII / final II comparisons (resource-limited
  loops only), selective vs the best competing technique;
* **Table 4** — selective speedup with communication costs considered vs
  ignored during partitioning;
* **Table 5** — selective speedup with vector memory assumed misaligned
  vs aligned;
* **Figure 1** — the dot-product motivating example's IIs on the toy
  machine.

Benchmark time = sum over loops of per-invocation cycles times invocation
count, plus a serial component: ``serial_fraction`` of baseline total
time is spent outside the compiled loops and is identical under every
strategy.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import islice

from repro.compiler.driver import CompiledLoop, compile_loop
from repro.compiler.service import (
    CompileRequest,
    compile_one,
    effort_counters,
    fork_pool,
)
from repro.compiler.strategies import Strategy
from repro.machine.configs import aligned_machine, figure1_machine, paper_machine
from repro.machine.machine import MachineDescription
from repro.observability.effort import EFFORT
from repro.observability.recorder import active_recorder, maybe_span
from repro.vectorize.partition import PartitionConfig
from repro.workloads.kernels import dot_product
from repro.workloads.spec import BENCHMARK_NAMES, Benchmark, build_benchmark

EPSILON = 1e-9


@dataclass(frozen=True)
class Variant:
    """A named compilation configuration."""

    label: str
    machine: MachineDescription
    strategy: Strategy
    partition_config: PartitionConfig | None = None


@dataclass
class LoopComparison:
    """Per-loop Table 3 entry."""

    name: str
    resource_limited: bool
    res_mii: dict[str, float]
    final_ii: dict[str, float]

    def _compare(self, values: dict[str, float], selective: str) -> str:
        sel = values[selective]
        best_other = min(v for k, v in values.items() if k != selective)
        if sel < best_other - EPSILON:
            return "better"
        if sel > best_other + EPSILON:
            return "worse"
        return "equal"

    def res_mii_outcome(self, selective: str = "selective") -> str:
        return self._compare(self.res_mii, selective)

    def final_ii_outcome(self, selective: str = "selective") -> str:
        return self._compare(self.final_ii, selective)


@dataclass
class CompileTelemetry:
    """Aggregate compile-time effort for one (benchmark, variant) batch.

    ``effort`` holds every :data:`~repro.observability.effort.EFFORT`
    counter, summed: *deterministic effort* that rides on the compiled
    objects themselves, so it is identical whether a loop was compiled
    in-process, in a worker, or served from the on-disk compile cache.
    ``wall_ms`` and the ``cache_hits``/``cache_misses`` split describe
    how this particular run obtained the results."""

    loops: int = 0
    wall_ms: float = 0.0
    effort: dict[str, int] = field(
        default_factory=lambda: {counter.name: 0 for counter in EFFORT}
    )
    cache_hits: int = 0
    cache_misses: int = 0
    # Translation-validation overhead (populated when checks run, either
    # in-process via REPRO_CHECK or post-hoc via --check).
    check_ms: float = 0.0
    check_findings: int = 0

    def absorb(self, compiled: CompiledLoop) -> None:
        """Fold one compiled loop's effort counters into the batch."""
        self.loops += 1
        self.check_ms += getattr(compiled, "check_ms", 0.0)
        self.check_findings += getattr(compiled, "check_findings", 0)
        for name, value in effort_counters(compiled).items():
            self.effort[name] += value


@dataclass
class BenchmarkEvaluation:
    benchmark: Benchmark
    loop_cycles: dict[str, list[int]]  # label -> per-loop weighted cycles
    compiled: dict[str, list[CompiledLoop]]
    serial_cycles: int

    def total_cycles(self, label: str) -> int:
        return sum(self.loop_cycles[label]) + self.serial_cycles

    def speedup(self, label: str, baseline: str = "baseline") -> float:
        return self.total_cycles(baseline) / self.total_cycles(label)


def _timed_compile_job(request: CompileRequest) -> tuple[CompiledLoop, float]:
    """Compile one request through the shared pure entry point and time
    it.  Top-level, so a pool worker can run it; the worker measures its
    own wall time, so per-loop timings (progress stragglers) survive the
    fan-out."""
    start = time.perf_counter()
    compiled = compile_one(request).compiled
    return compiled, (time.perf_counter() - start) * 1e3


class Evaluator:
    """Compiles and caches the corpus under the standard variants.

    ``jobs`` fans independent (benchmark, variant, loop) compilations out
    to a process pool (default: serial; ``REPRO_JOBS`` overrides).
    ``compile_cache`` — a directory path or
    :class:`~repro.evaluation.compile_cache.CompileCache` — persists
    compiled loops across runs keyed by loop IR, machine, strategy, and
    compiler version (``REPRO_COMPILE_CACHE`` overrides).  Neither
    changes any result: the corpus is deterministic, workers return the
    same objects in-process compilation produces, and cached entries are
    content-addressed.
    """

    def __init__(
        self,
        machine: MachineDescription | None = None,
        jobs: int | None = None,
        compile_cache=None,
        progress=None,
    ):
        self.machine = machine or paper_machine()
        if jobs is None:
            jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        self.jobs = max(1, jobs)
        if compile_cache is None:
            compile_cache = os.environ.get("REPRO_COMPILE_CACHE") or None
        if isinstance(compile_cache, str):
            from repro.evaluation.compile_cache import CompileCache

            compile_cache = CompileCache(compile_cache)
        self.compile_cache = compile_cache
        #: Optional :class:`repro.profiling.ProgressMonitor`; ticked once
        #: per loop (cache hits included) as compilations complete.
        self.progress = progress
        self._benchmarks: dict[str, Benchmark] = {}
        self._compiled: dict[tuple[str, str], list[CompiledLoop]] = {}
        self.telemetry: dict[tuple[str, str], CompileTelemetry] = {}
        self._pool = None

    # ------------------------------------------------------------------

    def _executor(self):
        """The shared worker pool, created on first parallel fan-out and
        reused by every subsequent batch (forking a fresh pool per batch
        costs a worker warm-up each time ``prewarm`` or a table runner
        triggers compilation)."""
        if self._pool is None:
            self._pool = fork_pool(self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the shared worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def standard_variants(self) -> list[Variant]:
        return [
            Variant("baseline", self.machine, Strategy.BASELINE),
            Variant("traditional", self.machine, Strategy.TRADITIONAL),
            Variant("full", self.machine, Strategy.FULL),
            Variant("selective", self.machine, Strategy.SELECTIVE),
        ]

    def benchmark(self, name: str) -> Benchmark:
        if name not in self._benchmarks:
            self._benchmarks[name] = build_benchmark(name)
        return self._benchmarks[name]

    def compiled_loops(self, name: str, variant: Variant) -> list[CompiledLoop]:
        key = (name, variant.label)
        if key not in self._compiled:
            self._compile_batches([(name, variant)])
        return self._compiled[key]

    def prewarm(
        self,
        names: tuple[str, ...] = BENCHMARK_NAMES,
        variants: list[Variant] | None = None,
    ) -> None:
        """Compile every (benchmark, variant) pair up front, in one
        fan-out.  With ``jobs > 1`` this is where cross-benchmark
        parallelism comes from: the tables then read memoized results."""
        variants = (
            list(variants) if variants is not None else self.standard_variants()
        )
        pending = [
            (name, variant)
            for name in names
            for variant in variants
            if (name, variant.label) not in self._compiled
        ]
        if pending:
            self._compile_batches(pending)

    def _compile_batches(
        self, batches: list[tuple[str, Variant]]
    ) -> None:
        """Compile every loop of every (benchmark, variant) batch,
        consulting the compile cache first and fanning misses out to the
        process pool when ``jobs > 1``.

        One loop handles the results, wherever they were compiled: in
        this process (so ``--stats`` and ``--profile`` see every
        compile) or in the pool.  Each batch's ``compile_benchmark``
        span and ``wall_ms`` cover the time spent obtaining that
        batch's results: compiling them here, or waiting for them."""
        rec = active_recorder()
        progress = self.progress
        cache = self.compile_cache
        if progress is not None:
            progress.add_total(
                sum(len(self.benchmark(name).loops) for name, _ in batches)
            )
        slots: dict[tuple[str, str], list[CompiledLoop | None]] = {}
        misses: list[tuple[int, CompileRequest, str | None]] = []
        batch_misses: list[int] = []
        for name, variant in batches:
            key = (name, variant.label)
            bench = self.benchmark(name)
            self.telemetry[key] = telemetry = CompileTelemetry()
            slot: list[CompiledLoop | None] = [None] * len(bench.loops)
            slots[key] = slot
            before = len(misses)
            for i, wl in enumerate(bench.loops):
                request = CompileRequest(
                    loop=wl.loop,
                    machine=variant.machine,
                    strategy=variant.strategy,
                    partition_config=variant.partition_config,
                )
                entry_key: str | None = None
                if cache is not None:
                    entry_key = request.cache_key()
                    cached = cache.load(entry_key)
                    if cached is not None:
                        slot[i] = cached
                        telemetry.cache_hits += 1
                        if progress is not None:
                            progress.tick(
                                wl.loop.name,
                                variant.label,
                                cache_hit=True,
                                effort=effort_counters(cached),
                            )
                        continue
                    telemetry.cache_misses += 1
                misses.append((i, request, entry_key))
            batch_misses.append(len(misses) - before)

        requests = [request for _, request, _ in misses]
        if self.jobs > 1 and len(misses) > 1:
            # pool.map streams results back in submission order, so
            # the progress monitor ticks as workers finish rather
            # than after the whole fan-out drains.
            results = self._executor().map(_timed_compile_job, requests)
        else:
            results = map(_timed_compile_job, requests)
        pending = zip(misses, results)
        for (name, variant), count in zip(batches, batch_misses):
            if not count:
                continue
            key = (name, variant.label)
            with maybe_span(
                rec, "compile_benchmark", benchmark=name, variant=variant.label
            ):
                start = time.perf_counter()
                # islice stops at the batch's last miss: the next
                # batch's first compile runs inside the next span.
                for (i, request, entry_key), (compiled, loop_ms) in islice(
                    pending, count
                ):
                    slots[key][i] = compiled
                    if cache is not None and entry_key is not None:
                        cache.store(entry_key, compiled)
                    if progress is not None:
                        progress.tick(
                            request.loop.name,
                            variant.label,
                            wall_ms=loop_ms,
                            effort=effort_counters(compiled),
                        )
                self.telemetry[key].wall_ms = (
                    time.perf_counter() - start
                ) * 1e3

        for key, slot in slots.items():
            telemetry = self.telemetry[key]
            for compiled in slot:
                assert compiled is not None
                telemetry.absorb(compiled)
            self._compiled[key] = slot

    def run_checks(self, names: tuple[str, ...] | None = None) -> list:
        """Run translation validation over every compiled loop memoized
        so far (optionally restricted to ``names``), folding checker
        wall-time into the batch telemetry.  Returns the
        :class:`~repro.check.CheckReport` list."""
        from repro.compiler.driver import run_translation_checks

        reports = []
        for (name, label), loops in sorted(self._compiled.items()):
            if names is not None and name not in names:
                continue
            telemetry = self.telemetry.get((name, label))
            for compiled in loops:
                reports.append(run_translation_checks(compiled))
                if telemetry is not None:
                    telemetry.check_ms += compiled.check_ms
                    telemetry.check_findings += compiled.check_findings
        return reports

    def loop_metric_rows(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, dict[str, dict[str, float]]]]:
        """Per-loop II/ResMII/RecMII (per original iteration) for every
        (benchmark, variant) compiled so far:
        ``{benchmark: {loop: {variant: {ii, res_mii, rec_mii}}}}`` —
        the payload of the ``BENCH_*.json`` artifacts."""
        rows: dict[str, dict[str, dict[str, dict[str, float]]]] = {}
        for (name, label), loops in sorted(self._compiled.items()):
            if name not in names:
                continue
            bench = self.benchmark(name)
            for wl, compiled in zip(bench.loops, loops):
                rows.setdefault(name, {}).setdefault(wl.loop.name, {})[
                    label
                ] = {
                    "ii": compiled.ii_per_iteration(),
                    "res_mii": compiled.res_mii_per_iteration(),
                    "rec_mii": compiled.rec_mii_per_iteration(),
                }
        return rows

    def telemetry_rows(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, CompileTelemetry]]:
        """Per-benchmark, per-variant compile telemetry for everything
        compiled so far (ordered by benchmark name)."""
        rows: dict[str, dict[str, CompileTelemetry]] = {}
        for (name, label), telemetry in sorted(self.telemetry.items()):
            if name in names:
                rows.setdefault(name, {})[label] = telemetry
        return rows

    def evaluate(
        self, name: str, variants: list[Variant] | None = None
    ) -> BenchmarkEvaluation:
        bench = self.benchmark(name)
        variants = variants or self.standard_variants()
        self.prewarm((name,), variants)
        loop_cycles: dict[str, list[int]] = {}
        compiled: dict[str, list[CompiledLoop]] = {}
        for variant in variants:
            loops = self.compiled_loops(name, variant)
            compiled[variant.label] = loops
            loop_cycles[variant.label] = [
                c.invocation_cycles(wl.trip_count) * wl.invocations
                for c, wl in zip(loops, bench.loops)
            ]
        base_label = variants[0].label
        base_total = sum(loop_cycles[base_label])
        frac = bench.serial_fraction
        serial = int(round(base_total * frac / (1.0 - frac)))
        return BenchmarkEvaluation(bench, loop_cycles, compiled, serial)

    # ------------------------------------------------------------------
    # Tables

    def table2(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, float]]:
        """Speedup over modulo scheduling: traditional / full / selective."""
        self.prewarm(names)
        rows: dict[str, dict[str, float]] = {}
        for name in names:
            ev = self.evaluate(name)
            rows[name] = {
                label: ev.speedup(label)
                for label in ("traditional", "full", "selective")
            }
        return rows

    def table3(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, object]]:
        """Per-loop ResMII / final II outcomes for resource-limited loops."""
        rows: dict[str, dict[str, object]] = {}
        for name in names:
            ev = self.evaluate(name)
            comparisons = self.loop_comparisons(name, ev)
            limited = [c for c in comparisons if c.resource_limited]
            res_counts = {"better": 0, "equal": 0, "worse": 0}
            ii_counts = {"better": 0, "equal": 0, "worse": 0}
            for c in limited:
                res_counts[c.res_mii_outcome()] += 1
                ii_counts[c.final_ii_outcome()] += 1
            rows[name] = {
                "loops": len(limited),
                "res_mii": res_counts,
                "final_ii": ii_counts,
            }
        return rows

    def loop_comparisons(
        self, name: str, evaluation: BenchmarkEvaluation | None = None
    ) -> list[LoopComparison]:
        ev = evaluation or self.evaluate(name)
        bench = ev.benchmark
        labels = ("baseline", "traditional", "full", "selective")
        comparisons: list[LoopComparison] = []
        for i, wl in enumerate(bench.loops):
            res = {lab: ev.compiled[lab][i].res_mii_per_iteration() for lab in labels}
            fin = {lab: ev.compiled[lab][i].ii_per_iteration() for lab in labels}
            limited = (
                ev.compiled["baseline"][i].is_resource_limited
                and ev.compiled["selective"][i].is_resource_limited
            )
            comparisons.append(
                LoopComparison(wl.loop.name, limited, res, fin)
            )
        return comparisons

    def table4(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, float]]:
        """Selective speedup: communication considered vs ignored."""
        ignored = Variant(
            "selective_nocomm",
            self.machine,
            Strategy.SELECTIVE,
            PartitionConfig(account_communication=False),
        )
        self.prewarm(names, self.standard_variants() + [ignored])
        rows: dict[str, dict[str, float]] = {}
        for name in names:
            ev = self.evaluate(
                name, self.standard_variants() + [ignored]
            )
            rows[name] = {
                "considered": ev.speedup("selective"),
                "ignored": ev.speedup("selective_nocomm"),
            }
        return rows

    def table5(
        self, names: tuple[str, ...] = BENCHMARK_NAMES
    ) -> dict[str, dict[str, float]]:
        """Selective speedup: misaligned vs aligned vector memory."""
        am = aligned_machine(self.machine.vector_length)
        aligned_base = Variant("baseline_al", am, Strategy.BASELINE)
        aligned_sel = Variant("selective_al", am, Strategy.SELECTIVE)
        self.prewarm(
            names, self.standard_variants() + [aligned_base, aligned_sel]
        )
        rows: dict[str, dict[str, float]] = {}
        for name in names:
            ev = self.evaluate(name)
            ev_al = self.evaluate(name, [aligned_base, aligned_sel])
            rows[name] = {
                "misaligned": ev.speedup("selective"),
                "aligned": ev_al.speedup("selective_al", baseline="baseline_al"),
            }
        return rows


def figure1_iis() -> dict[str, float]:
    """The motivating example's initiation intervals per original
    iteration on the toy machine (paper Figure 1: 2.0 / 3.0 / 1.5 / 1.0)."""
    machine = figure1_machine()
    loop = dot_product()
    results: dict[str, float] = {}
    baseline = compile_loop(
        loop, machine, Strategy.BASELINE, baseline_unroll=1
    )
    results["modulo"] = baseline.ii_per_iteration()
    for label, strategy in (
        ("traditional", Strategy.TRADITIONAL),
        ("full", Strategy.FULL),
        ("selective", Strategy.SELECTIVE),
    ):
        results[label] = compile_loop(loop, machine, strategy).ii_per_iteration()
    return results


def figure1_check_reports() -> list:
    """Translation-validation reports for the Figure 1 example under
    every strategy on the toy machine."""
    from repro.compiler.driver import run_translation_checks

    machine = figure1_machine()
    loop = dot_product()
    reports = []
    for strategy in (
        Strategy.BASELINE,
        Strategy.TRADITIONAL,
        Strategy.FULL,
        Strategy.SELECTIVE,
    ):
        compiled = compile_loop(
            loop,
            machine,
            strategy,
            baseline_unroll=1 if strategy is Strategy.BASELINE else None,
        )
        reports.append(run_translation_checks(compiled))
    return reports
