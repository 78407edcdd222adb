"""CLI for profiles: show, export, check.

Examples::

    python -m repro.profiling show profile.json --counters
    python -m repro.profiling export profile.json --format speedscope -o p.speedscope.json
    python -m repro.profiling check profile.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.profiling.export import render_tree, to_collapsed, to_speedscope
from repro.profiling.profile import check_profile, load_profile


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profiling",
        description="Inspect, export and audit repro profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render a profile as a text tree")
    show.add_argument("profile", help="profile JSON path")
    show.add_argument("--depth", type=int, default=None, metavar="N")
    show.add_argument(
        "--counters",
        action="store_true",
        help="include per-phase effort counters",
    )
    show.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        help="hide phases below this total wall time",
    )

    export = sub.add_parser(
        "export", help="export a profile for external viewers"
    )
    export.add_argument("profile", help="profile JSON path")
    export.add_argument(
        "--format",
        choices=("speedscope", "collapsed"),
        default="speedscope",
    )
    export.add_argument(
        "-o", "--output", default=None, help="output path (default stdout)"
    )

    check = sub.add_parser(
        "check", help="audit a profile's structural invariants"
    )
    check.add_argument("profile", help="profile JSON path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "show":
        profile = load_profile(args.profile)
        print(
            render_tree(
                profile,
                max_depth=args.depth,
                counters=args.counters,
                min_total_ns=int(args.min_ms * 1e6),
            )
        )
        return 0

    if args.command == "export":
        profile = load_profile(args.profile)
        if args.format == "collapsed":
            payload = to_collapsed(profile)
        else:
            payload = json.dumps(to_speedscope(profile), indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(payload)
            print(f"wrote {args.format} export to {args.output}")
        else:
            sys.stdout.write(payload)
        return 0

    if args.command == "check":
        problems = check_profile(load_profile(args.profile))
        if problems:
            for problem in problems:
                print(f"PROFILE INVARIANT VIOLATION: {problem}")
            return 1
        print("profile invariants hold")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
