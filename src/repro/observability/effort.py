"""The deterministic effort counters, declared once.

Six exact counts of compile work gate every change (``dashboard compare
--fail-on-exact``): the modulo scheduler's II attempts and five counts
of the Kernighan-Lin partitioner's work in paper Figure 2 (iterations,
``TEST-REPARTITION`` probes, ``BIN-PACK`` runs, resumed re-packs and the
reservation steps they replay).  Each counter goes by three names, and
this table is the one place that ties them together:

* ``name`` — its key in ledger records, ``BENCH_*.json`` telemetry rows,
  compile-summary ``effort`` dicts and ``CompileTelemetry.effort``;
* ``recorder`` — the :class:`~repro.observability.Recorder` counter the
  instrumented phase bumps by the same amount;
* ``source`` — the attribute the count is read from: a
  :class:`~repro.vectorize.partition.PartitionResult` field, or, when
  ``per_unit`` is set, a :class:`~repro.pipeline.scheduler.ModuloSchedule`
  field summed over the compiled loop's units.

The counts ride on the compiled object, so they are pure functions of
(loop, machine, strategy, compiler version): identical in-process, in a
pool worker, behind the compile server, or loaded from the artifact
store.  Wall time and cache traffic are not effort and are not listed.

Entries are in display order (the dashboard charts them in this order).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EffortCounter:
    """One deterministic effort counter under its three names."""

    name: str
    recorder: str
    source: str
    per_unit: bool = False


EFFORT: tuple[EffortCounter, ...] = (
    EffortCounter("sched_attempts", "sched.ii_attempts", "attempts", per_unit=True),
    EffortCounter("kl_pack_steps", "kl.pack_steps", "n_pack_steps"),
    EffortCounter("kl_probes", "kl.moves_evaluated", "n_probes"),
    EffortCounter("kl_bin_packs", "kl.bin_packs", "n_bin_packs"),
    EffortCounter("kl_repacks", "kl.repacks", "n_repacks"),
    EffortCounter("kl_iterations", "kl.iterations", "iterations"),
)

#: The counters read off a ``PartitionResult`` (present only when the
#: partitioner ran).
PARTITION_EFFORT = tuple(c for c in EFFORT if not c.per_unit)
