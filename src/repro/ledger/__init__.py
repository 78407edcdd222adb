"""Persistent run ledger: a durable, queryable record of every run.

One evaluation (or compilation) run produces a :class:`RunRecord` — run
id, git SHA, config and corpus digests, per-loop II/ResMII/RecMII and
speedups, deterministic effort counters, cache traffic, check/oracle
outcomes, wall clock — and the :class:`Ledger` appends it to an
append-only JSON-lines file.  The ledger is what turns
"did Table 2 speedups drift since last week?" from a hand-diff of stray
``BENCH_*.json`` files into a query (`python -m repro.dashboard`).

Design rules:

* **One way to stamp.** Every producer builds its record with
  :meth:`RunRecord.create`, which stamps the run id, time and commit
  and derives the config and corpus digests.
* **Append-only.** Records are immutable once written; a run is never
  edited, only superseded by later runs.
* **Atomic.** An append is a single ``O_APPEND`` write of one line
  (``store.JsonLinesLog``, which also keeps the sweep manifest).  A torn
  or unreadable line (a crashed writer) is skipped with a warning,
  never propagated.
* **Mergeable.** Sharded/parallel runs append per-shard records that
  :func:`merge_records` folds into one record equal to the serial
  record modulo wall-clock.
"""

from repro.ledger.record import (
    LEDGER_SCHEMA_VERSION,
    RunRecord,
    record_from_payloads,
    strip_wall_fields,
)
from repro.ledger.store import (
    DEFAULT_LEDGER_DIR,
    Ledger,
    merge_records,
    resolve_ledger_dir,
)

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "RunRecord",
    "merge_records",
    "record_from_payloads",
    "resolve_ledger_dir",
    "strip_wall_fields",
]
