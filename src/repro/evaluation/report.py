"""Markdown report generation.

``write_report`` runs every experiment and emits a self-contained
markdown document with measured-vs-paper tables — the machine-generated
counterpart of ``EXPERIMENTS.md``::

    from repro.evaluation.report import write_report
    write_report("report.md")

or from the command line::

    python -m repro.evaluation.report report.md
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from repro.evaluation.bench_io import EXPERIMENTS, collect_experiment
from repro.evaluation.experiments import Evaluator
from repro.evaluation.tables import experiment_table, markdown_table
from repro.observability import recording
from repro.observability.effort import EFFORT
from repro.workloads.spec import BENCHMARK_NAMES


def generate_report(
    evaluator: Evaluator | None = None,
    names: tuple[str, ...] = BENCHMARK_NAMES,
) -> str:
    """Run all experiments and return the markdown report text."""
    evaluator = evaluator or Evaluator()
    sections: list[str] = [
        "# Measured results — selective vectorization reproduction",
        "",
        "Generated by `repro.evaluation.report`. Paper values in "
        "parentheses (Figure 1: the Paper column).",
    ]

    with recording() as recorder:
        for experiment in EXPERIMENTS:
            data = collect_experiment(evaluator, experiment, names)["data"]
            title, headers, rows = experiment_table(experiment, data)
            sections += ["", f"## {title}", "", markdown_table(headers, rows)]

    telemetry = evaluator.telemetry_rows(names)
    if telemetry:
        # Most expensive batches first: the table is a cost report, so
        # sort by cumulative compile wall time rather than insertion
        # order, and show the per-loop cost next to the batch total.
        flat = sorted(
            (
                (name, label, t)
                for name, variants in telemetry.items()
                for label, t in variants.items()
            ),
            key=lambda row: -row[2].wall_ms,
        )
        rows = []
        for name, label, t in flat:
            per_loop = t.wall_ms / t.loops if t.loops else 0.0
            rows.append(
                [
                    name,
                    label,
                    str(t.loops),
                    f"{t.wall_ms:.0f}",
                    f"{per_loop:.1f}",
                    *(str(t.effort[counter.name]) for counter in EFFORT),
                    f"{t.cache_hits}/{t.cache_misses}",
                ]
            )
        sections += [
            "",
            "## Compile telemetry — search effort behind the tables",
            "",
            "Sorted by cumulative compile wall time, most expensive batch "
            "first. Cache hit/miss refers to the on-disk compile cache.",
            "",
            markdown_table(
                [
                    "Benchmark",
                    "Variant",
                    "Loops",
                    "Compile ms",
                    "ms/loop",
                    *(counter.name for counter in EFFORT),
                    "Cache h/m",
                ],
                rows,
            ),
        ]

    counts = Counter(
        (r.pass_name, r.reason) for r in recorder.events.remarks
    )
    if counts:
        sections += [
            "",
            "## Optimization remarks summary",
            "",
            "Reason-code totals across the compilation sweep behind the "
            "tables (run `python -m repro.evaluation --explain "
            "<benchmark>.L<i>` for any single loop's full story).",
            "",
            markdown_table(
                ["Pass", "Reason", "Remarks"],
                [
                    [pass_name, reason, str(n)]
                    for (pass_name, reason), n in sorted(counts.items())
                ],
            ),
        ]
    sections.append("")
    return "\n".join(sections)


def write_report(path: str, names: tuple[str, ...] = BENCHMARK_NAMES) -> str:
    text = generate_report(names=names)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return text


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    path = args[0] if args else "report.md"
    start = time.time()
    write_report(path)
    print(f"wrote {path} in {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
