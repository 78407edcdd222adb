"""Timing wrappers around the compiler's layers, for the traced run.

The program is not instrumented for this: :class:`Tracer` replaces the
layer functions at the names ``repro.compiler.driver`` and the scheduler
call them by, records calls, self time (a call's duration minus the time
of wrapped calls inside it) and counts read from the return values, and
puts the original functions back when it is uninstalled.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

from bench.hostspeed import HostSpeed
from bench.stats import median


def _dependence(counts: Counter, dep) -> None:
    counts["edges"] += len(dep.graph.edges)


def _partition(counts: Counter, result) -> None:
    counts["kl_iterations"] += result.iterations
    counts["kl_probes"] += result.n_probes
    counts["kl_bin_packs"] += result.n_bin_packs
    counts["kl_repacks"] += result.n_repacks
    counts["kl_pack_steps"] += result.n_pack_steps
    counts["probe_cache_hits"] += getattr(result, "n_probe_cache_hits", 0)


def _transform(counts: Counter, result) -> None:
    counts["ops_out"] += len(result.loop.body)
    counts["vector_ops"] += result.n_vector_ops
    counts["transfers"] += result.n_transfers


def _schedule(counts: Counter, schedule) -> None:
    counts["ii_attempts"] += schedule.attempts
    counts["at_mii"] += schedule.ii == max(schedule.res_mii, schedule.rec_mii)


def _allocate(counts: Counter, allocation) -> None:
    counts["allocations"] += 1
    counts["not_ok"] += not allocation.ok


def _spill(counts: Counter, spilled) -> None:
    counts["spills"] += spilled is not None


def _check(counts: Counter, report) -> None:
    counts["findings"] += len(report.findings)


#: (layer, module, attribute, count reader).  ``repro.compiler.driver``
#: binds most layer functions at import; ``spill_for_pressure`` is
#: imported at call time, so it is replaced in its own module;
#: ``minimum_ii`` is replaced where the scheduler binds it.
WRAPPED = (
    ("dependence", "repro.compiler.driver", "analyze_loop", _dependence),
    ("partition", "repro.compiler.driver", "partition_operations", _partition),
    ("distribute", "repro.compiler.driver", "distribute_loop", None),
    ("transform", "repro.compiler.driver", "transform_loop", _transform),
    ("modulo_schedule", "repro.compiler.driver", "modulo_schedule", _schedule),
    ("mii", "repro.pipeline.scheduler", "minimum_ii", None),
    ("regalloc", "repro.compiler.driver", "allocate_kernel", _allocate),
    ("regalloc", "repro.regalloc.spill", "spill_for_pressure", _spill),
    ("cleanup_schedule", "repro.compiler.driver", "list_schedule_length", None),
    ("driver", "repro.compiler.service", "compile_one", None),
    ("check", "repro.check", "run_all_checks", _check),
)

#: Layers inside one ``compile_one`` call; ``driver`` is what is left of
#: ``compile_one`` after the others.
COMPILE_LAYERS = (
    "dependence",
    "partition",
    "distribute",
    "transform",
    "modulo_schedule",
    "mii",
    "regalloc",
    "cleanup_schedule",
    "driver",
)


@dataclass
class LayerSample:
    """What the wrapped layers did while traced."""

    wall_s: float = 0.0
    calls: Counter = field(default_factory=Counter)
    self_s: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: defaultdict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))

    def add(self, other: LayerSample, factor: float) -> None:
        """Add ``other``, its times scaled by the host-speed ``factor``."""
        self.wall_s += other.wall_s * factor
        self.calls.update(other.calls)
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds * factor
        for layer, counts in other.counts.items():
            self.counts[layer].update(counts)


class Tracer:
    """Records calls, self time and counts of the wrapped layers."""

    def __init__(self) -> None:
        self.sample = LayerSample()
        # Time spent in wrapped calls, one entry per open wrapped call.
        self._children: list[float] = []

    def _wrap(self, layer: str, fn, count):
        def traced(*args, **kwargs):
            children = self._children
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.sample.self_s[layer] += elapsed - children.pop()
                self.sample.calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if count is not None:
                count(self.sample.counts[layer], result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace the layer functions for the duration of the block."""
        originals = []
        try:
            for layer, module_name, attribute, count in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self._wrap(layer, original, count))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def take(self, wall_s: float) -> LayerSample:
        """Everything recorded since the last ``take``, with the wall it
        took, then start afresh."""
        sample, self.sample = self.sample, LayerSample()
        sample.wall_s = wall_s
        return sample


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_call(fn: Callable[[], None]) -> LayerSample:
    """What the wrapped layers did during ``fn()``, times normalised."""
    tracer = Tracer()
    speed = HostSpeed()
    start = time.perf_counter()
    with tracer.installed():
        fn()
    sample = LayerSample()
    sample.add(tracer.take(time.perf_counter() - start), speed.next_factor())
    return sample


def layer_metrics(
    traced: LayerSample, overhead: list[float], checks: LayerSample
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``traced`` is a traced pass over the corpus, its times normalised to
    the reference host speed; share is self time over that pass's wall.
    ``overhead`` holds, per chunk of the pass, the traced chunk's wall
    over the same chunk's untraced wall.  ``checks`` is the traced
    correctness check.
    """
    metrics: dict[str, float] = {}
    for layer in COMPILE_LAYERS:
        metrics[f"{layer}.calls"] = traced.calls[layer]
        metrics[f"{layer}.self_s"] = traced.self_s.get(layer, 0.0)
        metrics[f"{layer}.share"] = _ratio(traced.self_s.get(layer, 0.0), traced.wall_s)
    counts = traced.counts
    metrics["dependence.edges"] = counts["dependence"]["edges"]
    partition = counts["partition"]
    for name in ("kl_iterations", "kl_probes", "kl_bin_packs", "kl_repacks", "kl_pack_steps"):
        metrics[f"partition.{name}"] = partition[name]
    metrics["partition.probe_cache_hit_ratio"] = _ratio(
        partition["probe_cache_hits"], partition["kl_probes"]
    )
    for name in ("ops_out", "vector_ops", "transfers"):
        metrics[f"transform.{name}"] = counts["transform"][name]
    schedule = counts["modulo_schedule"]
    metrics["modulo_schedule.ii_attempts"] = schedule["ii_attempts"]
    metrics["modulo_schedule.at_mii_ratio"] = _ratio(
        schedule["at_mii"], traced.calls["modulo_schedule"]
    )
    regalloc = counts["regalloc"]
    metrics["regalloc.retry_ratio"] = _ratio(regalloc["not_ok"], regalloc["allocations"])
    metrics["regalloc.spills"] = regalloc["spills"]
    metrics["check.calls"] = checks.calls["check"]
    metrics["check.self_s"] = checks.self_s.get("check", 0.0)
    metrics["check.findings"] = checks.counts["check"]["findings"]
    metrics["trace.overhead_ratio"] = median(overhead)
    return metrics
