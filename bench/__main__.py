"""Command line of the benchmark.

::

    python3 -m bench measure --workload gen_selective --seed 1 --seconds 20 --trace 0
    python3 -m bench run --seed 1 [--out DIR] [--seconds S] [--quick]
    python3 -m bench compare A B [A2 B2 ...]

``measure`` is one run of one workload; its last line of output is the
result object (``correct``, ``attempted``, ``failed``, ``metrics``).
``run`` measures every workload untraced and traced and writes a result
file per workload; it exits nonzero when any output was wrong.
``compare`` tells whether two sets of ``run`` results agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import OUT, ProgramMissing, use_checkout_program
from bench.config import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("::")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--quick", action="store_true", help="tiny corpora (self-tests)")

    run_args(commands.add_parser("measure", help="one run of one workload"))
    worker = commands.add_parser("worker", help="internal: the process measure starts")
    run_args(worker)
    worker.add_argument("--role", choices=("measure", "setup"), required=True)

    run = commands.add_parser("run", help="every workload, untraced and traced")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", type=Path, default=OUT)
    run.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--quick", action="store_true", help="tiny corpora (self-tests)")

    compare = commands.add_parser("compare", help="do two sets of run results agree?")
    compare.add_argument("paths", nargs="+", help="A B [A2 B2 ...]: result files or directories")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare, load, report
        from bench.config import benchmark_spec

        if len(args.paths) % 2:
            print("compare takes pairs of paths: A B [A2 B2 ...]", file=sys.stderr)
            return 2
        a, b = load(args.paths[0::2]), load(args.paths[1::2])
        rows = compare(a, b, benchmark_spec())
        print(report(rows, a, b))
        return 0 if rows and all(r.verdict == "ok" for r in rows) else 1

    try:
        use_checkout_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from bench.measure import MeasureError, measure, worker

    try:
        if args.command == "worker":
            return worker(
                args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.role
            )
        if args.command == "measure":
            result, detail = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), args.quick
            )
            print(json.dumps({"detail": detail}))
            print(json.dumps(result), flush=True)
            return 0
        from bench.run import run_all

        return run_all(args.seed, args.out, args.quick, args.seconds)
    except MeasureError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
