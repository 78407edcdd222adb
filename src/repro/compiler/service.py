"""The pure compile entry point every caller shares.

Historically the compile-request path was split: the evaluation
harness carried its own ``(loop, machine, strategy, partition_config)``
tuples into pool workers, the sweep runner called
:func:`~repro.compiler.driver.compile_loop` directly, and the CLI did
the same with a different knob subset.  :class:`CompileRequest` names
that input once — everything that determines a compilation's output —
and :func:`compile_one` is the single function the CLI, the
:class:`~repro.evaluation.experiments.Evaluator`, the sweep runner,
and the compile server all call.

``compile_one`` is *pure* in the sense the serving layer needs: its
result is a deterministic function of the request (plus the compiler
source itself, which the cache key's code version covers), so results
keyed by :meth:`CompileRequest.cache_key` can be deduplicated
in-flight, batched across callers, and persisted in a shared artifact
store without changing any answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.compiler.driver import CompiledLoop, compile_loop
from repro.compiler.strategies import Strategy
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.observability.effort import EFFORT
from repro.vectorize.partition import PartitionConfig

if TYPE_CHECKING:  # the pool's modules load only when a pool is made
    from concurrent.futures import ProcessPoolExecutor


@dataclass(frozen=True)
class CompileRequest:
    """One compile invocation's full input."""

    loop: Loop
    machine: MachineDescription
    strategy: Strategy
    partition_config: PartitionConfig | None = None
    baseline_unroll: int | None = None
    optimize: bool = False
    allow_reassociation: bool = False

    def cache_key(self) -> str:
        """The PR 3 content-addressed key: canonical loop + machine +
        strategy + knobs + compiler code version."""
        from repro.evaluation.compile_cache import cache_key

        return cache_key(
            self.loop,
            self.machine,
            self.strategy,
            partition_config=self.partition_config,
            baseline_unroll=self.baseline_unroll,
            optimize=self.optimize,
            allow_reassociation=self.allow_reassociation,
        )


def effort_counters(compiled: CompiledLoop) -> dict[str, int]:
    """The deterministic effort one compiled loop carries, keyed by
    :data:`~repro.observability.effort.EFFORT` name; the partition
    counters appear only when the partitioner ran."""
    partition = compiled.partition
    effort: dict[str, int] = {}
    for counter in EFFORT:
        if counter.per_unit:
            effort[counter.name] = sum(
                getattr(u.schedule, counter.source) for u in compiled.units
            )
        elif partition is not None:
            effort[counter.name] = getattr(partition, counter.source)
    return effort


def summarize(compiled: CompiledLoop) -> dict:
    """The JSON-able response summary of one compiled loop: the wire
    shape the compile server answers with and the load generator
    aggregates.  Nothing in it depends on how the result was obtained.
    The compile cache writes it in front of each stored entry, so a
    stored key is answered without unpickling the loop."""
    return {
        "loop": compiled.source.name,
        "machine": compiled.machine.name,
        "strategy": compiled.strategy.value,
        "ii": compiled.ii_per_iteration(),
        "res_mii": compiled.res_mii_per_iteration(),
        "rec_mii": compiled.rec_mii_per_iteration(),
        "units": [
            {
                "name": u.transform.loop.name,
                "ii": u.ii,
                "factor": u.factor,
                "stages": u.schedule.stage_count,
                "res_mii": int(u.schedule.res_mii),
                "rec_mii": int(u.schedule.rec_mii),
            }
            for u in compiled.units
        ],
        "n_vector_ops": compiled.n_vector_ops,
        "n_transfers": compiled.n_transfers,
        "resource_limited": compiled.is_resource_limited,
        "effort": effort_counters(compiled),
    }


@dataclass
class CompiledLoopPayload:
    """One compilation's result, paired with a JSON-able summary.

    ``compiled`` is the full in-process object (what the Evaluator and
    the tables consume); :meth:`summary` is its :func:`summarize`
    wire shape."""

    request: CompileRequest
    compiled: CompiledLoop

    def summary(self) -> dict:
        return summarize(self.compiled)


def compile_one(request: CompileRequest) -> CompiledLoopPayload:
    """Compile one request; the shared pure entry point.

    Exactly :func:`~repro.compiler.driver.compile_loop` with the
    request's knobs — bit-identical to what every caller produced
    before the extraction (the ``dashboard compare --fail-on-exact``
    gate holds across it)."""
    compiled = compile_loop(
        request.loop,
        request.machine,
        request.strategy,
        partition_config=request.partition_config,
        baseline_unroll=request.baseline_unroll,
        optimize=request.optimize,
        allow_reassociation=request.allow_reassociation,
    )
    return CompiledLoopPayload(request=request, compiled=compiled)


def fork_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` forked processes: the one pool the
    Evaluator, the sweep runner and the compile server fan compiles out
    to.

    Forked workers inherit the fully imported compiler, so the pool is
    warm from its first task.  The pool's modules are imported here,
    not at load: importing ``multiprocessing`` with the server module
    raised the served benchmark's peak RSS by about 1%."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )
