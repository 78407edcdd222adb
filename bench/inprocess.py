"""The in-process workloads: ``compile_one`` over a corpus, pass after pass.

``spec_tables`` compiles the paper's synthetic SPEC FP suite under all
four strategies; ``gen_selective`` and ``gen_no_partition`` compile one
generated corpus, the first with the selective strategy only, the second
with every strategy that never partitions.
"""

from __future__ import annotations

import json
import random
import resource
import time
from dataclasses import dataclass

import repro.compiler.service as service
from repro.compiler.service import CompileRequest
from repro.compiler.strategies import Strategy
from repro.machine.configs import machine_by_name
from repro.workloads.generator import CorpusSpec, corpus_plan
from repro.workloads.spec import build_suite

from bench.checks import Failures, check_sample, sampled
from bench.config import CORPUS_SEED, MACHINE, PROBE_EVERY, WARMUP_COMPILES, Workload
from bench.hostspeed import HostSpeed
from bench.stats import geomean, median, percentile
from bench.trace import LayerSample, Tracer, layer_metrics, traced_call


@dataclass(frozen=True)
class Op:
    """One (loop, strategy) pair; ``index`` is its corpus position."""

    index: int
    loop: object
    strategy: Strategy
    trip: int
    request: CompileRequest


@dataclass
class Outcome:
    """What a measured run reports: operations, failures and metrics."""

    attempted: int
    failures: Failures
    metrics: dict[str, float]
    detail: dict


def corpus(workload: Workload, quick: bool) -> list[tuple[object, int]]:
    """The workload's ``(loop, trip count)`` list, in corpus order."""
    if workload.spec_suite:
        loops = [(w.loop, w.trip_count) for b in build_suite() for w in b.loops]
        return loops[: workload.quick_size] if quick else loops
    plan = corpus_plan(CorpusSpec(size=workload.loops(quick), seed=CORPUS_SEED))
    return [(item.materialize(), item.trip_count) for item in plan]


def build_ops(workload: Workload, quick: bool) -> list[Op]:
    """Every (loop, strategy) pair, strategy by strategy.  Corpus sizes
    are multiples of EXEC_STRIDE, so the execution check samples the
    same loops under every strategy."""
    machine = machine_by_name(MACHINE)
    loops = corpus(workload, quick)
    ops: list[Op] = []
    for label in workload.strategies:
        strategy = Strategy(label)
        for loop, trip in loops:
            ops.append(
                Op(len(ops), loop, strategy, trip, CompileRequest(loop, machine, strategy))
            )
    return ops


def seeded_order(n: int, seed: int) -> list[int]:
    """The order a run visits ``n`` items in: a permutation drawn from
    ``seed``, the same for every pass of the run."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(latencies_ms: list[float], pass_walls_s: list[float], ops: int) -> dict:
    """Throughput over the median pass, and latency percentiles over the
    samples of every pass pooled."""
    return {
        "ops_per_s": ops / median(pass_walls_s),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p99_ms": percentile(latencies_ms, 0.99),
    }


class PassRecord:
    """One pass over the ops; times are normalised to the reference host
    speed (``bench/hostspeed.py``)."""

    def __init__(self, n: int) -> None:
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        #: Per position in ``ops``: the ``compile_one`` latency, or None.
        self.latencies_ms: list[float | None] = [None] * n
        #: Per position in ``ops``: the canonical JSON of (summary,
        #: invocation cycles), or None when the compile raised.
        self.results: list[str | None] = [None] * n
        self.errors: dict[int, str] = {}
        #: ``{op.index: (loop, compiled, trip)}`` of the sampled ops, for
        #: the execution check.
        self.sample: dict[int, tuple] = {}

    def compile(self, ops: list[Op], chunk: list[int]) -> float:
        """Compile the ops at positions ``chunk``; returns the chunk's
        wall.  An op's latency covers the ``compile_one`` call alone."""
        start = time.perf_counter()
        for i in chunk:
            op = ops[i]
            t0 = time.perf_counter()
            try:
                payload = service.compile_one(op.request)
            except Exception as exc:  # a failed op is counted, not fatal
                self.errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            self.latencies_ms[i] = (time.perf_counter() - t0) * 1e3
            compiled = payload.compiled
            summary = (payload.summary(), compiled.invocation_cycles(op.trip))
            self.results[i] = json.dumps(summary, sort_keys=True)
            if sampled(op.index):
                self.sample[op.index] = (op.loop, compiled, op.trip)
        return time.perf_counter() - start

    def scale(self, chunk: list[int], wall_s: float, factor: float) -> None:
        """Normalise the chunk's times by the host-speed ``factor``."""
        self.raw_wall_s += wall_s
        self.wall_s += wall_s * factor
        for i in chunk:
            if self.latencies_ms[i] is not None:
                self.latencies_ms[i] *= factor

    def latencies(self) -> list[float]:
        return [t for t in self.latencies_ms if t is not None]


def chunks(order: list[int]) -> list[list[int]]:
    return [order[c : c + PROBE_EVERY] for c in range(0, len(order), PROBE_EVERY)]


def run_pass(ops: list[Op], order: list[int]) -> PassRecord:
    """Compile every op once, visiting positions in ``order``, with a
    host-speed probe between chunks."""
    record = PassRecord(len(ops))
    speed = HostSpeed()
    for chunk in chunks(order):
        wall = record.compile(ops, chunk)
        record.scale(chunk, wall, speed.next_factor())
    return record


def run_traced_pass(
    ops: list[Op], order: list[int]
) -> tuple[PassRecord, PassRecord, LayerSample, list[float]]:
    """Each chunk untraced and traced back to back, so both see the same
    host speed; which goes first alternates, so neither gains from
    caches the other warmed.  Returns (untraced pass, traced pass, the
    traced pass's layer sample, per chunk traced wall / untraced wall)."""
    plain, traced = PassRecord(len(ops)), PassRecord(len(ops))
    tracer = Tracer()
    layers = LayerSample()
    overhead: list[float] = []
    speed = HostSpeed()

    def traced_compile(chunk: list[int]) -> float:
        with tracer.installed():
            return traced.compile(ops, chunk)

    for k, chunk in enumerate(chunks(order)):
        if k % 2:
            traced_wall = traced_compile(chunk)
            plain_wall = plain.compile(ops, chunk)
        else:
            plain_wall = plain.compile(ops, chunk)
            traced_wall = traced_compile(chunk)
        factor = speed.next_factor()
        plain.scale(chunk, plain_wall, factor)
        traced.scale(chunk, traced_wall, factor)
        layers.add(tracer.take(traced_wall), factor)
        overhead.append(traced_wall / plain_wall)
    return plain, traced, layers, overhead


class InProcessRun:
    """Set-up, timed passes and checks of one in-process workload."""

    def __init__(
        self, workload: Workload, seed: int, quick: bool = False, speed: HostSpeed | None = None
    ) -> None:
        """Set up: build the corpus and warm up.  ``speed`` times the
        set-up in chunks, so it can be normalised."""
        speed = speed or HostSpeed()
        self.workload = workload
        self.ops = build_ops(workload, quick)
        self.order = seeded_order(len(self.ops), seed)
        speed.lap()
        # The warm-up is an even spread over the corpus, the same for
        # every seed: selective compile times are heavy-tailed, so a
        # seed-drawn warm-up would move ``setup_s`` between seeds.
        stride = max(2, len(self.ops) // WARMUP_COMPILES)
        for chunk in chunks(list(range(0, len(self.ops), stride))[:WARMUP_COMPILES]):
            for i in chunk:
                try:
                    service.compile_one(self.ops[i].request)
                except Exception:  # the timed passes count this op's failure
                    pass
            speed.lap()
        self.failures = Failures()
        self.reference: list[str | None] = [None] * len(self.ops)
        self.passes = 0

    def _check_pass(self, record: PassRecord) -> None:
        """Check a pass's results against the first result of each op."""
        p = self.passes
        self.passes += 1
        for i, result in enumerate(record.results):
            if result is None:
                self.failures.add((p, i), record.errors[i])
            elif self.reference[i] is None:
                self.reference[i] = result
            elif result != self.reference[i]:
                self.failures.add((p, i), "result differs from an earlier pass")

    def _quality(self) -> tuple[float, float]:
        """(geomean II per iteration over every pair, geomean over loops of
        baseline / selective invocation cycles, or 0 without both)."""
        decoded = [json.loads(r) if r is not None else None for r in self.reference]
        iis = [d[0]["ii"] for d in decoded if d is not None]
        cycles: dict[int, dict[str, int]] = {}
        for op, d in zip(self.ops, decoded):
            if d is not None:
                cycles.setdefault(id(op.loop), {})[op.strategy.value] = d[1]
        speedups = [
            c["baseline"] / c["selective"]
            for c in cycles.values()
            if "baseline" in c and "selective" in c
        ]
        return geomean(iis), geomean(speedups)

    def measure(self, passes: int) -> Outcome:
        """``passes`` timed passes, then checks; end-to-end metrics."""
        records = [run_pass(self.ops, self.order) for _ in range(passes)]
        # Before the checks, whose interpreter runs are not the program's.
        rss = peak_rss_mb()
        for record in records:
            self._check_pass(record)
        check_sample(records[-1].sample, self.failures, self.passes - 1)
        n = len(self.ops)
        pooled = [t for record in records for t in record.latencies()]
        metrics = timing_metrics(pooled, [r.wall_s for r in records], n)
        metrics["peak_rss_mb"] = rss
        metrics["ii_per_iter_geomean"] = self._quality()[0]
        detail = {
            "passes": passes,
            "pass_wall_s": [r.wall_s for r in records],
            "raw_pass_wall_s": [r.raw_wall_s for r in records],
            "ops_per_pass": n,
            "latency_samples": len(pooled),
        }
        return Outcome(n * self.passes, self.failures, metrics, detail)

    def measure_traced(self) -> Outcome:
        """One pass, each chunk untraced and traced; per-layer metrics."""
        plain, traced, layers, overhead = run_traced_pass(self.ops, self.order)
        self._check_pass(plain)
        self._check_pass(traced)
        checks = traced_call(lambda: check_sample(traced.sample, self.failures, "traced"))
        metrics = layer_metrics(layers, overhead, checks)
        metrics["selective_speedup_geomean"] = self._quality()[1]
        detail = {
            "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "overhead_ratios": overhead,
        }
        return Outcome(len(self.ops) * self.passes, self.failures, metrics, detail)
