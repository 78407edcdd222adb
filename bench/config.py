"""Workload definitions and the fixed settings of every run.

``BENCHMARK.json`` at the checkout root names the workloads and metrics
with their units, directions and bounds; this module holds what a run
needs beyond that: corpus sizes, strategies, and the serving setup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from bench import ROOT

#: The generated corpora are one fixed draw.  The run seed orders the
#: work (compile order, request order); it does not redraw the loops,
#: because seed-drawn corpora of these sizes moved throughput and tail
#: latency between seeds by more than the bounds the metrics gate on.
CORPUS_SEED = 1
MACHINE = "paper"

#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Compiles run before timing starts, so lazy state is built.
WARMUP_COMPILES = 64
#: Seconds the host-speed probe (``bench/hostspeed.py``) takes at the
#: reference speed, about its median during benchmark runs on the 2-core
#: Xeon VM the bounds were set on.  Every reported time is normalised to
#: this speed.
REFERENCE_PROBE_S = 0.0006
#: The power of the probe's slowdown that a compile slows by.  Timed
#: between chunks of compiles for 40 minutes, on each in-process
#: workload, pass walls normalised at power 1 still rose by a tenth of
#: the raw walls' rise (on a log scale) when the host slowed; at power
#: 1.1 they no longer rose, and their spread fell from 4-5% to 1.5-2%.
PROBE_POWER = 1.1
#: In-process operations timed between two probes.  The host's speed
#: moves within a second: a probe every 4 compiles tracked the compile
#: time better than one every 16, or one every compile.
PROBE_EVERY = 4

#: Execution check: every EXEC_STRIDE-th (loop, strategy) pair runs at
#: min(trip, EXEC_MAX_TRIP) and at EXEC_CLEANUP_TRIP iterations (not a
#: multiple of the vector length, so the cleanup loop runs) on memory
#: seeded with EXEC_MEMORY_SEED.
EXEC_STRIDE = 16
EXEC_MAX_TRIP = 64
EXEC_CLEANUP_TRIP = 13
EXEC_MEMORY_SEED = 11

#: Closed-loop client connections to the compile server (``nproc`` is 2).
SERVE_CONNECTIONS = 2
#: Share of ``serve_mixed``'s unique requests stored before the server
#: starts.  At one half, the median request sat on the edge between the
#: store-read and the compile latencies, so p50 read the slowest store
#: read; at two thirds it falls among the store reads.
SERVE_WARM_SHARE = 2 / 3
#: Requests sent between two host-speed probes, with both connections
#: idle while the client probes.
SERVE_SEGMENT = 8
#: Server command-line settings (``python -m repro.serve``).  Requests
#: reach the server one distinct key at a time, so batches never grow
#: past one and lingering for more would only delay each compile.
SERVER = {"jobs": 1, "batch_max": 16, "batch_linger_ms": 0.0, "queue_limit": 64}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Loops in the generated corpus (unused for the SPEC suite).
    size: int
    #: Loops in the corpus of a ``--quick`` self-test run.
    quick_size: int
    strategies: tuple[str, ...]
    #: Timed passes over the corpus in a run of ``run_seconds``, the
    #: figure ``BENCHMARK.json`` gives.  Every pass after the first is
    #: checked against it.
    passes: int
    #: Compile the paper's synthetic SPEC FP suite instead of a
    #: generated corpus.
    spec_suite: bool = False
    #: Served through ``python -m repro.serve`` instead of in-process.
    served: bool = False

    def loops(self, quick: bool) -> int:
        return self.quick_size if quick else self.size

    def timed_passes(self, seconds: float) -> int:
        """Passes of a run of ``seconds``: ``passes`` at ``run_seconds``
        and in proportion otherwise.  The count never depends on how fast
        the passes run, so a faster program is measured the same way."""
        share = seconds / benchmark_spec()["run_seconds"]
        return max(1, round(self.passes * share))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spec_tables",
            size=528,
            quick_size=12,
            strategies=("baseline", "traditional", "full", "selective"),
            passes=2,
            spec_suite=True,
        ),
        Workload(
            "gen_selective", size=512, quick_size=24, strategies=("selective",), passes=2
        ),
        Workload(
            "gen_no_partition",
            size=400,
            quick_size=24,
            strategies=("baseline", "traditional", "full"),
            passes=2,
        ),
        Workload(
            "serve_mixed",
            size=144,
            quick_size=18,
            strategies=("selective",),
            passes=7,
            served=True,
        ),
    )
}


def benchmark_spec() -> dict:
    """The checkout's ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)
