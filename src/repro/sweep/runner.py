"""Sharded, resumable sweep runner over a generated corpus.

A sweep partitions the corpus plan into contiguous shards.  Each shard
compiles its loops under every requested strategy, accumulates the
deterministic effort counters, and lands durably as (1) an atomically
written shard result file under ``shards/`` and (2) one appended
manifest line.  A crash between the two re-runs the shard on resume —
shard compilation is pure, so redoing it is always safe.  With
``jobs > 1`` shards are pulled from a shared pool queue as workers free
up (work stealing), so one slow shard never idles the rest of the pool.

The per-shard :class:`~repro.ledger.record.RunRecord`\\ s carry only
shard-independent config, so ``merge_records`` folds them into a record
whose deterministic content exactly equals a serial reference run —
the property the ``sweep-smoke`` CI job gates with ``--fail-on-exact``.
:func:`corpus_record` is the one builder of a generated-corpus record:
a shard passes it the summaries of its own compiles, and the compile
server's load generator the served ones, so a served run records the
sweep's record.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import as_completed
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.compiler.driver import check_env_enabled
from repro.compiler.service import CompileRequest, compile_one, fork_pool
from repro.compiler.strategies import Strategy
from repro.evaluation.bench_io import atomic_write_json, write_bench_json
from repro.ledger.record import RunRecord, digest_of, new_run_id
from repro.ledger.store import Ledger, merge_records
from repro.machine.configs import MACHINE_FACTORIES
from repro.observability.effort import EFFORT
from repro.observability.stats import percentile
from repro.sweep.manifest import SweepManifest
from repro.workloads.generator import CorpusSpec, corpus_plan

if TYPE_CHECKING:
    from repro.profiling.progress import ProgressMonitor

SHARD_DIR = "shards"

#: Machines a sweep may target — the shared registry, so the sweep
#: runner, the compiler CLI, and the compile server resolve the same
#: names to the same configurations.
MACHINES = MACHINE_FACTORIES


class SweepError(RuntimeError):
    """The sweep could not run to completion (config mismatch on resume,
    failed shards, ...)."""


class ShardFailure(RuntimeError):
    """A shard died before its result landed durably.  Raised by the
    fault-injection knob (``fail_after``) to simulate a mid-shard kill:
    the shard's result file and manifest line are never written, exactly
    as if the process had been SIGKILLed mid-compile.  It takes only its
    message, so a pool worker's raise unpickles in the parent."""


@dataclass(frozen=True)
class SweepConfig:
    """Everything that shapes a sweep's deterministic content, plus the
    sharding/parallelism that only shapes how it is obtained."""

    spec: CorpusSpec
    shards: int = 1
    jobs: int = 1
    strategies: tuple[str, ...] = ("selective",)
    machine: str = "paper"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r} "
                f"(expected one of {sorted(MACHINES)})"
            )
        for label in self.strategies:
            Strategy(label)  # a strategy's value, as the protocol takes it

    def record_config(self) -> dict:
        """The shard-record config: deliberately free of shard count and
        pool size, so serial and sharded runs merge to equal records."""
        return {
            "experiments": ["sweep"],
            "sweep": {
                "corpus": self.spec.to_dict(),
                "strategies": sorted(self.strategies),
                "machine": self.machine,
            },
        }

    def resume_digest(self) -> str:
        """Identity a resume must match: the deterministic content plus
        the shard boundaries (resuming with a different shard split would
        mix incompatible slices)."""
        return digest_of(
            {"config": self.record_config(), "shards": self.shards}
        )


@dataclass
class SweepResult:
    """What one (possibly resumed) sweep run produced."""

    merged: RunRecord
    bench_path: str
    out_dir: str
    loops: int
    compiles: int
    wall_s: float
    shard_wall_s: float
    resumed_shards: int = 0
    ran_shards: int = 0
    loop_wall_ms: list[float] = field(default_factory=list)

    def rate_per_s(self) -> float:
        return self.loops / self.shard_wall_s if self.shard_wall_s > 0 else 0.0


def shard_bounds(size: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` plan slices, sizes differing by at most 1."""
    base, extra = divmod(size, shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, SHARD_DIR, f"shard-{shard:05d}.json")


def corpus_record(
    config: SweepConfig, summaries: Iterable[dict], **fields: Any
) -> RunRecord:
    """The ledger record of compiles over ``config``'s corpus.

    Its deterministic content — the per-loop II/ResMII/RecMII grid and
    the summed effort — comes only from ``summaries``
    (:meth:`~repro.compiler.service.CompiledLoopPayload.summary`
    dicts), whoever compiled them; ``fields`` are the circumstantial
    rest (run id, label, jobs, cache, wall time, check block).  A
    counter a summary lacks reads as 0.
    """
    loops: dict[str, dict[str, dict[str, float]]] = {}
    effort = {counter.name: 0 for counter in EFFORT}
    for summary in summaries:
        loops.setdefault(summary["loop"], {})[summary["strategy"]] = {
            "ii": summary["ii"],
            "res_mii": summary["res_mii"],
            "rec_mii": summary["rec_mii"],
        }
        for counter in EFFORT:
            effort[counter.name] += int(summary["effort"].get(counter.name, 0))
    return RunRecord.create(
        config=config.record_config(),
        loops={"sweep": loops},
        experiments={
            "sweep": {
                "loops": config.spec.size,
                "strategies": sorted(config.strategies),
                "machine": config.machine,
                "corpus": config.spec.to_dict(),
            }
        },
        effort=effort,
        **fields,
    )


def _run_shard(task: dict) -> dict:
    """Compile one shard and durably write its result file.

    Top-level so the process pool can pickle it.  Returns the summary
    the parent appends to the manifest *after* the result file exists —
    the ordering that makes a crash at any point resumable.
    """
    config = SweepConfig(
        spec=CorpusSpec.from_dict(task["spec"]),
        shards=int(task["shards"]),
        strategies=tuple(task["strategies"]),
        machine=task["machine"],
    )
    shard = int(task["shard"])
    lo, hi = int(task["lo"]), int(task["hi"])
    fail_after = task.get("fail_after")
    machine = MACHINES[config.machine]()
    strategies = [Strategy(label) for label in sorted(config.strategies)]
    plan = corpus_plan(config.spec)[lo:hi]

    summaries: list[dict] = []
    check_findings = 0
    check_ms = 0.0
    loop_wall_ms: list[float] = []
    start = time.perf_counter()
    for n, item in enumerate(plan):
        if fail_after is not None and n >= int(fail_after):
            raise ShardFailure(f"killed after {n} loop(s) (induced failure)")
        loop = item.materialize()
        loop_start = time.perf_counter()
        for strategy in strategies:
            payload = compile_one(
                CompileRequest(loop=loop, machine=machine, strategy=strategy)
            )
            summaries.append(payload.summary())
            check_findings += payload.compiled.check_findings
            check_ms += payload.compiled.check_ms
        loop_wall_ms.append((time.perf_counter() - loop_start) * 1e3)
    wall_s = time.perf_counter() - start

    record = corpus_record(
        config,
        summaries,
        run_id=f"{task['run_id']}-s{shard:05d}",
        label=task.get("label", ""),
        jobs=1,
        cache={"hits": 0, "misses": len(summaries), "compile_cache": False},
        wall_s=round(wall_s, 3),
        check=(
            {
                "enabled": True,
                "findings": check_findings,
                "check_ms": round(check_ms, 3),
            }
            if check_env_enabled()
            else None
        ),
    )

    path = shard_path(task["out_dir"], shard)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_json(
        path,
        {
            "shard": shard,
            "lo": lo,
            "hi": hi,
            "wall_s": round(wall_s, 3),
            "loop_wall_ms": [round(ms, 3) for ms in loop_wall_ms],
            "record": record.to_dict(),
        },
    )
    return {
        "shard": shard,
        "lo": lo,
        "hi": hi,
        "loops": len(plan),
        "wall_s": round(wall_s, 3),
        "path": os.path.relpath(path, task["out_dir"]),
    }


def _load_shard(out_dir: str, shard: int) -> dict:
    with open(shard_path(out_dir, shard), encoding="utf-8") as f:
        return json.load(f)


def run_sweep(
    config: SweepConfig,
    out_dir: str,
    *,
    resume: bool = False,
    ledger_dir: str | None = None,
    run_label: str = "sweep",
    progress: "ProgressMonitor | None" = None,
    fail_shard: int | None = None,
    fail_after: int | None = None,
) -> SweepResult:
    """Run (or resume) a sweep; returns the merged result.

    Durability contract: a shard is *done* only once its result file has
    been atomically renamed into place and its manifest line appended,
    in that order.  Killing the process anywhere loses only unfinished
    shards; ``resume=True`` verifies the manifest header matches this
    config and completes exactly the missing shards.

    ``fail_shard``/``fail_after`` are the fault-injection knobs used by
    the resume tests and the ``sweep-smoke`` CI job: shard ``fail_shard``
    raises :class:`ShardFailure` after ``fail_after`` loops, before
    anything of it lands on disk.
    """
    manifest = SweepManifest(out_dir)
    header = manifest.header() if manifest.exists() else None
    done: dict[int, dict] = {}
    if resume:
        if header is None:
            raise SweepError(
                f"nothing to resume: {manifest.path} has no sweep header"
            )
        if header.get("digest") != config.resume_digest():
            raise SweepError(
                "resume config mismatch: the manifest in "
                f"{out_dir} describes a different sweep "
                "(corpus, strategies, machine, or shard count changed)"
            )
        done = manifest.completed_shards()
    elif header is not None:
        raise SweepError(
            f"{out_dir} already holds a sweep manifest; pass resume=True "
            "(--resume) to complete it or choose a fresh directory"
        )
    run_id = (
        str(header.get("run_id"))
        if header is not None and header.get("run_id")
        else new_run_id()
    )
    if header is None:
        manifest.append(
            {
                "event": "sweep",
                "run_id": run_id,
                "digest": config.resume_digest(),
                "config": {
                    **config.record_config(),
                    "shards": config.shards,
                },
            }
        )

    bounds = shard_bounds(config.spec.size, config.shards)
    pending = [k for k in range(config.shards) if k not in done]
    tasks = []
    for k in pending:
        lo, hi = bounds[k]
        tasks.append(
            {
                "spec": config.spec.to_dict(),
                "shards": config.shards,
                "strategies": list(config.strategies),
                "machine": config.machine,
                "shard": k,
                "lo": lo,
                "hi": hi,
                "out_dir": out_dir,
                "run_id": run_id,
                "label": run_label,
                "fail_after": fail_after if k == fail_shard else None,
            }
        )
    if progress is not None:
        progress.add_total(sum(t["hi"] - t["lo"] for t in tasks))

    start = time.perf_counter()
    failures: list[str] = []
    with ExitStack() as stack:
        # Each outcome returns the shard's summary or raises its error.
        outcomes: Iterator[tuple[dict, Callable[[], dict]]]
        if config.jobs > 1 and len(tasks) > 1:
            pool = stack.enter_context(fork_pool(config.jobs))
            # Submitting every shard and draining as_completed is the
            # work-stealing loop: a worker that finishes early pulls the
            # next pending shard off the shared queue.
            futures = {pool.submit(_run_shard, t): t for t in tasks}
            outcomes = ((futures[f], f.result) for f in as_completed(futures))
        else:
            # In-process, so a profile sees every compile.
            outcomes = ((t, partial(_run_shard, t)) for t in tasks)
        for task, outcome in outcomes:
            try:
                summary = outcome()
            except Exception as exc:  # noqa: BLE001 — the shard is resumable
                failures.append(
                    f"shard {task['shard']}: {type(exc).__name__}: {exc}"
                )
                continue
            manifest.append({"event": "shard", "status": "done", **summary})
            if progress is not None:
                for ms in _load_shard(out_dir, summary["shard"]).get(
                    "loop_wall_ms", []
                ):
                    progress.tick(
                        f"shard{summary['shard']:05d}", "sweep", wall_ms=ms
                    )
    wall_s = time.perf_counter() - start

    if failures:
        detail = "; ".join(failures)
        raise SweepError(
            f"{len(failures)} shard(s) failed ({detail}); completed shards "
            f"are durable — re-run with resume=True (--resume) to finish"
        )

    documents = [_load_shard(out_dir, k) for k in range(config.shards)]
    records = [RunRecord.from_dict(d["record"]) for d in documents]
    merged = merge_records(records, run_id=run_id, label=run_label)
    if ledger_dir:
        Ledger(ledger_dir).append(merged)

    loop_wall_ms = sorted(
        ms for d in documents for ms in d.get("loop_wall_ms", [])
    )
    shard_wall_s = sum(float(d.get("wall_s") or 0.0) for d in documents)
    compiles = config.spec.size * len(config.strategies)
    payload = {
        "schema_version": 1,
        "experiment": "sweep",
        "data": {
            "loops": config.spec.size,
            "compiles": compiles,
            "shards": config.shards,
            "strategies": sorted(config.strategies),
            "machine": config.machine,
            "corpus": config.spec.to_dict(),
            "resumed_shards": len(done),
            "effort": merged.effort,
            "rate": {
                "rate_per_s": (
                    round(config.spec.size / shard_wall_s, 3)
                    if shard_wall_s > 0
                    else 0.0
                )
            },
            "per_loop": {
                "p50": {"wall_ms": percentile(loop_wall_ms, 0.50)},
                "p90": {"wall_ms": percentile(loop_wall_ms, 0.90)},
                "p99": {"wall_ms": percentile(loop_wall_ms, 0.99)},
                "max": {"wall_ms": loop_wall_ms[-1] if loop_wall_ms else 0.0},
            },
        },
        "wall_s": round(shard_wall_s, 3),
    }
    bench_path = write_bench_json("sweep", payload, out_dir)
    return SweepResult(
        merged=merged,
        bench_path=bench_path,
        out_dir=out_dir,
        loops=config.spec.size,
        compiles=compiles,
        wall_s=wall_s,
        shard_wall_s=shard_wall_s,
        resumed_shards=len(done),
        ran_shards=len(tasks),
        loop_wall_ms=loop_wall_ms,
    )
