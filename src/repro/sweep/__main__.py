"""CLI for corpus-scale sweeps.

::

    python -m repro.sweep run --size 10000 --shards 8 --out sweep-10k \\
        [--jobs N] [--seed S] [--archetypes a,b] [--weights a=2,b=0.5] \\
        [--trip 16:256] [--strategies selective] [--machine paper] \\
        [--resume] [--ledger DIR] [--run-label L] [--progress] \\
        [--profile PATH] [--fail-shard K --fail-after N]
    python -m repro.sweep status --out sweep-10k

``run`` generates the corpus plan, compiles it shard by shard, merges
the shard records into one ledger record, and writes
``BENCH_sweep.json`` into the output directory.  A killed run resumes
with ``--resume`` (completed shards are never recompiled).  Exit code 3
means shards failed but the manifest is intact and resumable.
"""

from __future__ import annotations

import argparse
import sys

from repro.observability import output_path_error
from repro.observability.stats import percentile
from repro.sweep.manifest import SweepManifest
from repro.sweep.runner import MACHINES, SweepConfig, SweepError, run_sweep
from repro.workloads.generator import GENERATORS, CorpusSpec

EXIT_FAILED_SHARDS = 3


def _parse_weights(text: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        name, sep, value = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"bad weight {part!r} (expected name=value)"
            )
        weights[name.strip()] = float(value)
    return weights


def _parse_trip(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad trip range {text!r} (expected lo:hi)"
        )
    return int(lo), int(hi)


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(filter(None, (p.strip() for p in text.split(","))))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="sharded, resumable corpus sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run (or resume) a sweep")
    run.add_argument("--size", type=int, required=True, help="corpus size")
    run.add_argument("--seed", type=int, default=0, help="corpus seed")
    run.add_argument(
        "--archetypes",
        type=_parse_list,
        default=(),
        help=f"comma-separated mix (default: all of {','.join(GENERATORS)})",
    )
    run.add_argument(
        "--weights",
        type=_parse_weights,
        default={},
        help="relative archetype draw weights, e.g. fp_chain=2,stencil=0.5",
    )
    run.add_argument(
        "--trip",
        type=_parse_trip,
        default=(16, 256),
        metavar="LO:HI",
        help="trip-count draw range (default 16:256)",
    )
    run.add_argument(
        "--strategies",
        type=_parse_list,
        default=("selective",),
        help="comma-separated strategies (default: selective)",
    )
    run.add_argument(
        "--machine",
        default="paper",
        choices=sorted(MACHINES),
        help="machine model (default: paper)",
    )
    run.add_argument("--shards", type=int, default=1)
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="process-pool size; shards are work-stolen as workers free up",
    )
    run.add_argument("--out", required=True, help="sweep output directory")
    run.add_argument(
        "--resume",
        action="store_true",
        help="complete the missing shards of an interrupted sweep",
    )
    run.add_argument("--ledger", help="append the merged record here")
    run.add_argument("--run-label", default="sweep")
    run.add_argument(
        "--progress",
        action="store_true",
        help="emit per-loop progress heartbeats to stderr",
    )
    run.add_argument(
        "--profile",
        metavar="PATH",
        help="write a call-tree profile JSON ('-' renders to stdout); "
        "only the in-process work is profiled, so use --jobs 1",
    )
    run.add_argument(
        "--fail-shard",
        type=int,
        metavar="K",
        help="fault injection: kill shard K mid-run (tests, CI smoke)",
    )
    run.add_argument(
        "--fail-after",
        type=int,
        default=0,
        metavar="N",
        help="with --fail-shard: die after N loops of the shard",
    )

    status = sub.add_parser("status", help="summarize a sweep manifest")
    status.add_argument("--out", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = SweepConfig(
            spec=CorpusSpec(
                size=args.size,
                seed=args.seed,
                archetypes=args.archetypes,
                weights=args.weights,
                trip_counts=args.trip,
            ),
            shards=args.shards,
            jobs=args.jobs,
            strategies=args.strategies,
            machine=args.machine,
        )
    except (KeyError, ValueError) as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    error = output_path_error(args.profile)
    if error is not None:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    progress = None
    if args.progress:
        from repro.profiling import ProgressMonitor

        progress = ProgressMonitor(stream=sys.stderr)

    recorder = None
    if args.profile is not None:
        from repro.observability import recording

        recorder_cm = recording()
        recorder = recorder_cm.__enter__()
    try:
        result = run_sweep(
            config,
            args.out,
            resume=args.resume,
            ledger_dir=args.ledger,
            run_label=args.run_label,
            progress=progress,
            fail_shard=args.fail_shard,
            fail_after=args.fail_after if args.fail_shard is not None else None,
        )
    except SweepError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_FAILED_SHARDS
    finally:
        if progress is not None:
            progress.finish()
        if recorder is not None:
            recorder_cm.__exit__(None, None, None)
            from repro.profiling import emit_profile

            emit_profile(recorder, args.profile)

    p50 = percentile(result.loop_wall_ms, 0.50)
    p99 = percentile(result.loop_wall_ms, 0.99)
    print(
        f"sweep: {result.loops} loops ({result.compiles} compiles) in "
        f"{result.shard_wall_s:.1f}s across {config.shards} shard(s) "
        f"({result.ran_shards} ran, {result.resumed_shards} resumed) — "
        f"{result.rate_per_s():.1f} loops/s, per-loop p50 {p50:.1f}ms "
        f"p99 {p99:.1f}ms"
    )
    print(f"sweep: wrote {result.bench_path}")
    if args.ledger:
        print(
            f"sweep: recorded run {result.merged.run_id} in {args.ledger}"
        )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    manifest = SweepManifest(args.out)
    header = manifest.header()
    if header is None:
        print(f"sweep: no manifest in {args.out}")
        return 1
    config = header.get("config", {})
    shards = int(config.get("shards") or 0)
    done = manifest.completed_shards()
    sweep_cfg = config.get("sweep", {})
    corpus = sweep_cfg.get("corpus", {})
    print(
        f"sweep {header.get('run_id')}: {corpus.get('size')} loops, "
        f"{len(done)}/{shards} shard(s) done"
    )
    for k in sorted(done):
        event = done[k]
        print(
            f"  shard {k}: {event.get('loops')} loops in "
            f"{event.get('wall_s')}s -> {event.get('path')}"
        )
    missing = [k for k in range(shards) if k not in done]
    if missing:
        print(f"  missing: {missing} (run with --resume to complete)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_status(args)


if __name__ == "__main__":
    sys.exit(main())
