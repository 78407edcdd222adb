"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.evaluation              # everything (a few minutes)
    python -m repro.evaluation figure1
    python -m repro.evaluation table2 table3
    python -m repro.evaluation table2 --benchmarks 101.tomcatv 171.swim

Every run writes one machine-readable ``BENCH_<experiment>.json``
artifact per experiment (disable with ``--no-bench-json``; redirect with
``--bench-dir``).  ``--explain LOOP`` prints the II provenance report
for one workload loop instead of running experiments.  ``--oracle-gap``
runs the exact-optimality oracle harness (``BENCH_oracle_gap.json``)
instead, exiting nonzero if a *certified* loop shows a heuristic gap.

Compile-time fast paths (results are identical either way): ``--jobs N``
fans loop compilations out to a process pool, ``--compile-cache DIR``
persists compiled loops across runs, and every run writes a
``BENCH_compile_perf.json`` artifact recording wall clock, cache
hits/misses, and the deterministic effort counters (see
``docs/performance.md``).

Regression gating: ``--ledger[=DIR]`` (or the ``REPRO_LEDGER``
environment variable) appends an immutable run record — per-loop IIs,
speedups, effort counters, check outcome — to the append-only run
ledger that ``python -m repro.dashboard`` queries and renders.  The
committed baseline is such a ledger (``benchmarks/baseline``): copy it,
append a ``--check`` run of every experiment, and ``python -m
repro.dashboard compare prev latest --fail-on-exact`` exits nonzero on
any changed II, speedup, effort count or check outcome (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.evaluation import bench_io
from repro.evaluation.experiments import Evaluator
from repro.evaluation.tables import format_experiment
from repro.observability import output_path_error, recording, write_trace
from repro.oracle import DEFAULT_MAX_NODES
from repro.workloads.spec import BENCHMARK_NAMES


def explain_workload_loop(name: str) -> int:
    """Print the --explain report for one workload loop (``<bench>.L<i>``)."""
    from repro.compiler.explain import explain_loop
    from repro.machine.configs import paper_machine
    from repro.workloads.spec import build_benchmark

    bench_name = name.rsplit(".L", 1)[0]
    if bench_name not in BENCHMARK_NAMES:
        print(
            f"unknown loop {name!r}: expected <benchmark>.L<index>, "
            f"benchmarks: {', '.join(BENCHMARK_NAMES)}",
            file=sys.stderr,
        )
        return 2
    bench = build_benchmark(bench_name)
    for wl in bench.loops:
        if wl.loop.name == name:
            print(explain_loop(wl.loop, paper_machine()))
            return 0
    print(
        f"no loop named {name!r} in {bench_name} "
        f"(it has {len(bench.loops)} loops: "
        f"{bench.loops[0].loop.name} .. {bench.loops[-1].loop.name})",
        file=sys.stderr,
    )
    return 2


def run_oracle_gap(args: argparse.Namespace) -> int:
    """Run the optimality-gap harness and gate on certified gaps."""
    from repro.oracle import OracleBudget
    from repro.oracle.gap import oracle_gap_report, render_gap_table

    budget = OracleBudget(max_nodes=args.oracle_budget)
    start = time.time()
    payload = oracle_gap_report(budget)
    print(render_gap_table(payload))
    print(f"[oracle_gap: {time.time() - start:.1f}s]")
    if not args.no_bench_json:
        path = bench_io.write_bench_json("oracle_gap", payload, args.bench_dir)
        print(f"wrote {path}")
    regressions = bench_io.oracle_gap_regressions(payload)
    print(bench_io.render_oracle_gap_gate(regressions))
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the paper's evaluation tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        default=[],
        help=f"which experiments to run (default: all of "
        f"{', '.join(bench_io.EXPERIMENTS)})",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(BENCHMARK_NAMES),
        choices=list(BENCHMARK_NAMES),
        help="restrict to a subset of benchmarks",
    )
    parser.add_argument(
        "--explain",
        metavar="LOOP",
        help="print the II provenance report for one workload loop "
        "(e.g. 101.tomcatv.L0) instead of running experiments",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run translation validation over every compiled loop (plus "
        "the Figure 1 strategies) after the experiments; print the "
        "check gate and exit nonzero on any ERROR finding",
    )
    parser.add_argument(
        "--oracle-gap",
        action="store_true",
        help="run the exact-optimality oracle over Figure 1 plus the "
        "small-loop corpus subset instead of the table experiments: "
        "write BENCH_oracle_gap.json and exit nonzero if any *certified* "
        "loop shows a KL or II gap",
    )
    parser.add_argument(
        "--oracle-budget",
        type=int,
        default=DEFAULT_MAX_NODES,
        metavar="NODES",
        help="search-node budget per oracle invocation (default: "
        f"{DEFAULT_MAX_NODES})",
    )
    parser.add_argument(
        "--bench-dir",
        default=".",
        metavar="DIR",
        help="directory for BENCH_<experiment>.json artifacts (default: .)",
    )
    parser.add_argument(
        "--no-bench-json",
        action="store_true",
        help="skip writing BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="compile loops on a pool of N processes (default: serial)",
    )
    parser.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help="persist compiled loops in DIR keyed by loop/machine/"
        "strategy/compiler-version (default: off)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write a JSON trace covering every compilation performed",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="profile the run: a call tree of per-phase wall time and "
        "deterministic effort counters. With PATH, write the profile "
        "JSON for python -m repro.profiling; without, print the tree. "
        "With --ledger, the record carries the profile too",
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="append this run to the run ledger (directory: DIR, else "
        "the REPRO_LEDGER environment variable, else .repro-ledger); "
        "setting REPRO_LEDGER alone also enables recording",
    )
    parser.add_argument(
        "--run-label",
        default="",
        metavar="LABEL",
        help="free-form label stamped on the ledger record (e.g. "
        "nightly, cold, warm)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit periodic progress heartbeats to stderr (loops "
        "done/total, ETA, cache hit-rate, stragglers); works with "
        "--jobs",
    )
    parser.add_argument(
        "--progress-json",
        metavar="PATH",
        help="append progress heartbeats as JSON lines to PATH",
    )
    args = parser.parse_args(argv)
    error = output_path_error(args.trace_json, args.profile, args.progress_json)
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    if args.explain:
        return explain_workload_loop(args.explain)

    if args.oracle_gap:
        return run_oracle_gap(args)

    for experiment in args.experiments:
        if experiment not in bench_io.EXPERIMENTS:
            parser.error(
                f"unknown experiment {experiment!r} "
                f"(choose from {', '.join(bench_io.EXPERIMENTS)})"
            )
    experiments = args.experiments or list(bench_io.EXPERIMENTS)
    names = tuple(args.benchmarks)

    progress = None
    if args.progress or args.progress_json:
        from repro.profiling import ProgressMonitor

        progress = ProgressMonitor(
            stream=sys.stderr if args.progress else None,
            json_path=args.progress_json,
        )

    recorder = None
    session = (
        recording()
        if (args.trace_json or args.profile is not None)
        else None
    )
    if session is not None:
        recorder = session.__enter__()
    payloads: dict[str, dict[str, object]] = {}
    run_start = time.time()
    evaluator = None
    try:
        evaluator = Evaluator(
            jobs=args.jobs,
            compile_cache=args.compile_cache,
            progress=progress,
        )
        for experiment in experiments:
            start = time.time()
            payloads[experiment] = bench_io.collect_experiment(
                evaluator, experiment, names
            )
            print(format_experiment(experiment, payloads[experiment]["data"]))
            print(f"[{experiment}: {time.time() - start:.1f}s]\n")
    finally:
        if session is not None:
            session.__exit__(None, None, None)
        if progress is not None:
            progress.finish()
        if evaluator is not None:
            evaluator.close()

    perf = bench_io.compile_perf_payload(
        evaluator, names, wall_s=time.time() - run_start
    )
    print(
        "compile perf: {wall_s}s wall, jobs={jobs}, cache "
        "{cache_hits} hit(s) / {cache_misses} miss(es)".format(**perf)
    )

    if not args.no_bench_json:
        for experiment, payload in payloads.items():
            path = bench_io.write_bench_json(
                experiment, payload, args.bench_dir
            )
            print(f"wrote {path}")
        path = bench_io.write_bench_json("compile_perf", perf, args.bench_dir)
        print(f"wrote {path}")

    profile = None
    if recorder is not None:
        if args.trace_json:
            write_trace(recorder, args.trace_json)
            print(f"wrote trace to {args.trace_json}")
        if args.profile is not None:
            from repro.profiling import emit_profile

            profile = emit_profile(recorder, args.profile)

    failed = False
    check_outcome: dict[str, object] | None = None
    if args.check:
        from repro.compiler.driver import run_translation_checks
        from repro.evaluation.experiments import figure1_compiled

        check_start = time.time()
        reports = evaluator.run_checks(names) + [
            run_translation_checks(compiled)
            for compiled in figure1_compiled().values()
        ]
        errors = sum(len(r.errors()) for r in reports)
        findings = sum(len(r.findings) for r in reports)
        for report in reports:
            if report.findings:
                print(report.render_text())
        print(
            f"check gate: {len(reports)} compile(s) validated, "
            f"{errors} error finding(s), {findings} total finding(s) "
            f"[{time.time() - check_start:.1f}s]"
        )
        check_outcome = {
            "units": len(reports),
            "errors": errors,
            "findings": findings,
            "check_ms": round((time.time() - check_start) * 1e3, 3),
        }
        failed = errors > 0

    if args.ledger is not None or os.environ.get("REPRO_LEDGER"):
        from repro.ledger import (
            Ledger,
            record_from_payloads,
            resolve_ledger_dir,
        )

        record = record_from_payloads(
            payloads,
            perf,
            label=args.run_label,
            config={
                "benchmarks": sorted(names),
                "compile_cache": args.compile_cache is not None,
            },
            check=check_outcome,
            profile=profile.to_dict() if profile is not None else None,
            notes=(["gate failed"] if failed else []),
        )
        ledger = Ledger(resolve_ledger_dir(args.ledger))
        ledger.append(record)
        print(f"recorded run {record.run_id} in {ledger.runs_path}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
