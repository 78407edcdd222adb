"""Dashboard CLI: record runs, query the ledger, render the HTML.

Examples::

    # record a run from a directory of BENCH_*.json artifacts
    python -m repro.dashboard record --bench-dir . --label nightly

    # list / compare / trend / outliers over the ledger
    python -m repro.dashboard list
    python -m repro.dashboard compare prev latest --fail-on-exact
    python -m repro.dashboard trend effort.sched_attempts
    python -m repro.dashboard outliers wall_s

    # merge per-shard ledgers into one logical run
    python -m repro.dashboard merge shard-a/ shard-b/ --label sharded

    # render the self-contained HTML dashboard
    python -m repro.dashboard render -o dashboard.html

The ledger directory comes from ``--ledger``, else the ``REPRO_LEDGER``
environment variable, else ``.repro-ledger``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from repro.dashboard.queries import (
    DEFAULT_WALL_ABS_MS,
    DEFAULT_WALL_REL,
    compare_runs,
    outliers,
    render_comparison,
    render_outliers,
    render_trend,
    summarize,
)
from repro.dashboard.render import render_dashboard
from repro.ledger import (
    DEFAULT_LEDGER_DIR,
    Ledger,
    merge_records,
    record_from_payloads,
    resolve_ledger_dir,
)
from repro.profiling import load_profile


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help=(
            "ledger directory (default: $REPRO_LEDGER or "
            f"{DEFAULT_LEDGER_DIR})"
        ),
    )


def load_bench_payloads(directory: str) -> dict[str, dict]:
    """Every ``BENCH_*.json`` in ``directory``, keyed by experiment."""
    payloads: dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_") : -len(".json")]
        with open(path, encoding="utf-8") as f:
            payloads[name] = json.load(f)
    return payloads


def _cmd_record(args: argparse.Namespace) -> int:
    payloads = load_bench_payloads(args.bench_dir)
    if not payloads:
        print(
            f"record: no BENCH_*.json artifacts in {args.bench_dir!r}",
            file=sys.stderr,
        )
        return 2
    record = record_from_payloads(
        payloads,
        label=args.label,
        repo=args.repo,
        profile=load_profile(args.profile).to_dict() if args.profile else None,
        notes=args.note,
    )
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    ledger.append(record)
    print(f"recorded {record.run_id} -> {ledger.runs_path}")
    print(record.summary_line())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    print(summarize(ledger.latest(args.n)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    comparison = compare_runs(
        ledger.resolve(args.a),
        ledger.resolve(args.b),
        wall_rel=args.wall_rel,
        wall_abs_ms=args.wall_abs_ms,
    )
    print(render_comparison(comparison))
    if args.fail_on_exact and not comparison.clean:
        print(
            f"compare: FAIL ({len(comparison.exact_deltas())} exact "
            "delta(s) — deterministic content changed)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    print(render_trend(ledger.latest(args.n), args.metric))
    return 0


def _cmd_outliers(args: argparse.Namespace) -> int:
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    found = outliers(ledger.latest(args.n), args.metric, k=args.k)
    print(render_outliers(found, args.metric))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    html = render_dashboard(ledger, limit=args.n)
    if args.output == "-":
        sys.stdout.write(html)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(html)
        print(f"rendered {args.output} ({len(html)} bytes)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    shards = []
    for source in args.shards:
        shard_ledger = Ledger(source)
        records = shard_ledger.records()
        if not records:
            print(f"merge: no records in {source!r}", file=sys.stderr)
            return 2
        shards += records
    merged = merge_records(shards, label=args.label or None)
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    ledger.append(merged)
    print(
        f"merged {len(shards)} shard record(s) -> {merged.run_id} "
        f"in {ledger.runs_path}"
    )
    print(merged.summary_line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dashboard",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "record", help="append a run record built from BENCH_*.json"
    )
    _add_ledger_flag(p)
    p.add_argument(
        "--bench-dir", default=".", help="directory holding BENCH_*.json"
    )
    p.add_argument("--label", default="", help="free-form run label")
    p.add_argument(
        "--repo", default=".", help="git repo to stamp the record's sha from"
    )
    p.add_argument(
        "--profile", default=None, help="path of a profile JSON to embed"
    )
    p.add_argument(
        "--note",
        action="append",
        default=[],
        help="free-form remark (repeatable)",
    )
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser("list", help="list recorded runs")
    _add_ledger_flag(p)
    p.add_argument("-n", type=int, default=None, help="newest N runs only")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser(
        "compare", help="diff two runs (exact effort/II, noise-gated wall)"
    )
    _add_ledger_flag(p)
    p.add_argument("a", help="baseline run: latest/prev/-N/run-id prefix")
    p.add_argument("b", help="candidate run: latest/prev/-N/run-id prefix")
    p.add_argument(
        "--wall-rel",
        type=float,
        default=DEFAULT_WALL_REL,
        help="relative wall-noise threshold",
    )
    p.add_argument(
        "--wall-abs-ms",
        type=float,
        default=DEFAULT_WALL_ABS_MS,
        help="absolute wall-noise threshold (ms)",
    )
    p.add_argument(
        "--fail-on-exact",
        action="store_true",
        help="exit 1 when any exact (deterministic) delta exists",
    )
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("trend", help="one metric across runs")
    _add_ledger_flag(p)
    p.add_argument(
        "metric", help="dotted path, e.g. effort.sched_attempts or wall_s"
    )
    p.add_argument("-n", type=int, default=None, help="newest N runs only")
    p.set_defaults(fn=_cmd_trend)

    p = sub.add_parser(
        "outliers", help="runs deviating from the cross-run median"
    )
    _add_ledger_flag(p)
    p.add_argument("metric", help="dotted path, e.g. wall_s")
    p.add_argument("-n", type=int, default=None, help="newest N runs only")
    p.add_argument(
        "-k", type=float, default=3.0, help="robust-sigma threshold"
    )
    p.set_defaults(fn=_cmd_outliers)

    p = sub.add_parser(
        "render", help="write the self-contained HTML dashboard"
    )
    _add_ledger_flag(p)
    p.add_argument(
        "-o",
        "--output",
        default="dashboard.html",
        help="output path ('-' for stdout)",
    )
    p.add_argument("-n", type=int, default=None, help="newest N runs only")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser(
        "merge",
        help="fold per-shard ledgers into one record in the target ledger",
    )
    _add_ledger_flag(p)
    p.add_argument(
        "shards", nargs="+", help="shard ledger directories to fold"
    )
    p.add_argument("--label", default="", help="label for the merged run")
    p.set_defaults(fn=_cmd_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"dashboard: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
