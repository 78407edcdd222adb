"""Command-line compiler driver.

Compile a loop written in the DSL and inspect every stage::

    python -m repro.compiler path/to/kernel.loop
    python -m repro.compiler kernel.loop --strategy selective --schedule
    python -m repro.compiler kernel.loop --machine toy --all --trip 100
    echo 'array x(64) ...' | python -m repro.compiler - --partition

Options select what is printed: the (optimized) IR, the dependence
analysis, the partition, the transformed loop, the kernel schedule, the
unrolled pipeline, timing, and a functional run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.compiler.service import (
    CompileRequest,
    compile_one,
    effort_counters,
)
from repro.compiler.strategies import ALL_STRATEGIES, Strategy
from repro.dependence.analysis import analyze_loop
from repro.frontend import LoweringError, SyntaxErrorDSL, parse_loop
from repro.interp.memory import memory_for_loop
from repro.machine.configs import MACHINE_FACTORIES as MACHINES
from repro.machine.configs import machine_by_name
from repro.observability import output_path_error, recording, write_trace
from repro.pipeline.kernel import kernel_listing, pipeline_listing
from repro.vectorize.communication import Side


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler",
        description="Compile a DSL loop and inspect the pipeline stages.",
    )
    parser.add_argument("source", help="DSL file, or '-' for stdin")
    parser.add_argument(
        "--machine", choices=sorted(MACHINES), default="paper"
    )
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in ALL_STRATEGIES],
        default="selective",
    )
    parser.add_argument("--trip", type=int, default=200, help="trip count for timing/run")
    parser.add_argument("--optimize", action="store_true", help="run dataflow opts first")
    parser.add_argument("--ir", action="store_true", help="print the source IR")
    parser.add_argument("--deps", action="store_true", help="print dependence verdicts")
    parser.add_argument("--partition", action="store_true", help="print the partition")
    parser.add_argument("--transformed", action="store_true", help="print transformed loop(s)")
    parser.add_argument("--schedule", action="store_true", help="print kernel schedule(s)")
    parser.add_argument("--pipeline", action="store_true", help="print the unrolled pipeline")
    parser.add_argument("--run", action="store_true", help="execute functionally")
    parser.add_argument("--all", action="store_true", help="print everything")
    parser.add_argument(
        "--explain",
        action="store_true",
        help="compile under every strategy and print the II provenance "
        "report: MII bounds with pressure tables and critical cycles, "
        "partition reason codes, reservation tables, strategy verdicts",
    )
    parser.add_argument(
        "--oracle",
        nargs="?",
        const="default",
        default=None,
        metavar="NODES",
        help="certify the compiled result against the exact-optimality "
        "oracle (branch-and-bound partition + exhaustive modulo "
        "schedule); optional NODES overrides the search-node budget "
        "(default: 200000). Combines with --explain to add a "
        "certification section to the report",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run translation validation over the compiled result (the "
        "independent stage checkers re-derive every dependence, "
        "resource, and allocation obligation) and exit nonzero on any "
        "ERROR finding. With --explain, adds a validation section",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write a machine-readable JSON trace of the compilation",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="profile the compilation: a call tree of per-phase wall time "
        "and deterministic effort counters (covers --check and --oracle "
        "phases too). With PATH, write the profile JSON for "
        "python -m repro.profiling; without, print the tree. With "
        "--ledger, the record carries the profile too",
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="append this compilation to the run ledger (directory: DIR, "
        "else the REPRO_LEDGER environment variable, else .repro-ledger); "
        "setting REPRO_LEDGER alone also enables recording",
    )
    parser.add_argument(
        "--run-label",
        default="",
        metavar="LABEL",
        help="free-form label stamped on the ledger record",
    )
    return parser


def _append_ledger_record(
    args: argparse.Namespace,
    loop,
    strategy: Strategy,
    compiled,
    check_report,
    *,
    wall_s: float,
    profile: dict | None,
) -> None:
    """Record this single-loop compilation in the run ledger.  The
    record shares the evaluation harness's shape, so the dashboard
    queries treat ad-hoc compiles and full-corpus runs uniformly."""
    from repro.ledger import Ledger, RunRecord, resolve_ledger_dir

    bench = (
        "stdin" if args.source == "-" else os.path.basename(args.source)
    )
    effort = effort_counters(compiled)
    check = None
    if check_report is not None:
        check = {
            "units": 1,
            "errors": len(check_report.errors()),
            "findings": len(check_report.findings),
        }
    record = RunRecord.create(
        config={
            "source": args.source,
            "machine": args.machine,
            "strategy": strategy.value,
            "trip": args.trip,
            "optimize": bool(args.optimize),
        },
        loops={
            bench: {
                loop.name: {
                    strategy.value: {
                        "ii": round(compiled.ii_per_iteration(), 6)
                    }
                }
            }
        },
        label=args.run_label,
        experiments={
            "compile": {
                bench: {
                    "ii_per_iteration": round(
                        compiled.ii_per_iteration(), 6
                    ),
                    "cycles": compiled.invocation_cycles(args.trip),
                }
            }
        },
        effort=effort,
        wall_s=round(wall_s, 3),
        check=check,
        profile=profile,
    )
    ledger = Ledger(resolve_ledger_dir(args.ledger))
    ledger.append(record)
    print(f"recorded run {record.run_id} in {ledger.runs_path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.all:
        for flag in ("ir", "deps", "partition", "transformed", "schedule", "run"):
            setattr(args, flag, True)

    # Bad input is one line on stderr and exit 2 (1 is --check's).
    error = output_path_error(args.trace_json, args.profile)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.source == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.source, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            print(f"cannot read {args.source}: {exc.strerror}", file=sys.stderr)
            return 2
    try:
        loop = parse_loop(source)
    except (SyntaxErrorDSL, LoweringError) as exc:
        name = "<stdin>" if args.source == "-" else args.source
        print(f"{name}:{exc}", file=sys.stderr)
        return 2
    machine = machine_by_name(args.machine)
    strategy = Strategy(args.strategy)

    oracle_budget = None
    if args.oracle is not None:
        from repro.oracle import OracleBudget

        oracle_budget = (
            OracleBudget()
            if args.oracle == "default"
            else OracleBudget(max_nodes=int(args.oracle))
        )

    if args.explain:
        from repro.compiler.explain import explain_loop

        print(
            explain_loop(
                loop,
                machine,
                optimize=args.optimize,
                trip_count=args.trip,
                oracle_budget=oracle_budget,
                check=args.check,
            )
        )
        return 0

    if args.ir:
        print(loop)
        print()

    if args.deps:
        dep = analyze_loop(loop, machine.vector_length)
        print("dependence analysis:")
        for op in loop.body:
            verdict = "vectorizable" if dep.is_vectorizable(op) else "serial"
            print(f"  [{verdict:>12}] {op}")
        print()

    def certify(compiled):
        if oracle_budget is None:
            return None
        from repro.oracle.gap import certify_compiled

        return certify_compiled(loop, machine, compiled, budget=oracle_budget)

    def compile_and_analyze():
        """Compile, certify, and validate — one unit so the whole
        pipeline lands inside a single recording scope and the profile
        attributes the --oracle and --check phases too."""
        compiled = compile_one(
            CompileRequest(
                loop=loop,
                machine=machine,
                strategy=strategy,
                optimize=args.optimize,
            )
        ).compiled
        certificate = certify(compiled)
        check_report = None
        if args.check:
            from repro.compiler.driver import run_translation_checks

            check_report = run_translation_checks(compiled)
        return compiled, certificate, check_report

    recorder = None
    compile_start = time.perf_counter()
    if args.trace_json or args.profile is not None:
        with recording() as recorder:
            compiled, certificate, check_report = compile_and_analyze()
    else:
        compiled, certificate, check_report = compile_and_analyze()
    compile_wall_s = time.perf_counter() - compile_start

    if args.partition and compiled.partition is not None:
        p = compiled.partition
        print(
            f"partition: cost {p.cost} (all-scalar {p.scalar_cost}), "
            f"{p.iterations} KL iterations, trace {p.history}"
        )
        for op in loop.body:
            side = p.assignment.get(op.uid)
            tag = "VECTOR" if side is Side.VECTOR else "scalar"
            print(f"  [{tag}] {op}")
        print()

    if args.transformed:
        for unit in compiled.units:
            print(unit.transform.loop)
            print()

    if args.schedule:
        for unit in compiled.units:
            print(kernel_listing(unit.schedule))
            pressures = {
                f: p.max_live for f, p in unit.allocation.pressures.items()
            }
            print(f"  register pressure: {pressures}")
            print()

    if args.pipeline:
        for unit in compiled.units:
            print(pipeline_listing(unit.schedule, min(6, max(2, args.trip))))
            print()

    print(
        f"{strategy.value} on {machine.name}: II/iteration = "
        f"{compiled.ii_per_iteration():.2f}, "
        f"{compiled.invocation_cycles(args.trip)} cycles for "
        f"{args.trip} iterations"
    )

    if certificate is not None:
        from repro.oracle.gap import render_certificate

        print()
        print(render_certificate(certificate))

    check_failed = False
    if check_report is not None:
        print()
        print(check_report.render_text())
        check_failed = not check_report.ok

    if args.run:
        memory = memory_for_loop(loop, seed=42)
        result = compiled.execute(memory, args.trip)
        for name, value in sorted(result.carried.items()):
            print(f"  carried {name} = {value}")
        for name, value in sorted(result.live_outs.items()):
            print(f"  result {name} = {value}")

    profile = None
    if recorder is not None:
        if args.trace_json:
            write_trace(recorder, args.trace_json)
            print(f"\nwrote trace to {args.trace_json}")
        if args.profile is not None:
            from repro.profiling import emit_profile

            print()
            profile = emit_profile(recorder, args.profile)

    if args.ledger is not None or os.environ.get("REPRO_LEDGER"):
        _append_ledger_record(
            args,
            loop,
            strategy,
            compiled,
            check_report,
            wall_s=compile_wall_s,
            profile=profile.to_dict() if profile is not None else None,
        )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
