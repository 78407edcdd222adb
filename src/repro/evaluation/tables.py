"""Paper-style table rendering.

:func:`experiment_table` lays each experiment's result out as one grid
in the layout of the paper's table, every measured value beside the
published one, so that runs of the benchmark harness can be compared to
the paper side by side.  The CLI prints the grid as text
(:func:`format_experiment`); the report renders it as markdown
(:func:`markdown_table`).
"""

from __future__ import annotations

PAPER_TABLE2 = {
    "093.nasa7": {"traditional": 0.18, "full": 0.76, "selective": 1.04},
    "101.tomcatv": {"traditional": 0.71, "full": 0.99, "selective": 1.38},
    "103.su2cor": {"traditional": 0.63, "full": 0.94, "selective": 1.15},
    "104.hydro2d": {"traditional": 0.94, "full": 1.00, "selective": 1.03},
    "125.turb3d": {"traditional": 0.38, "full": 0.93, "selective": 0.95},
    "146.wave5": {"traditional": 0.76, "full": 0.96, "selective": 1.03},
    "171.swim": {"traditional": 1.01, "full": 1.00, "selective": 1.17},
    "172.mgrid": {"traditional": 0.53, "full": 0.99, "selective": 1.26},
    "301.apsi": {"traditional": 0.51, "full": 0.97, "selective": 1.02},
}

PAPER_TABLE3 = {
    "093.nasa7": {"loops": 30, "better": 9, "equal": 21, "worse": 0},
    "101.tomcatv": {"loops": 6, "better": 5, "equal": 1, "worse": 0},
    "103.su2cor": {"loops": 38, "better": 27, "equal": 11, "worse": 0},
    "104.hydro2d": {"loops": 67, "better": 23, "equal": 44, "worse": 0},
    "125.turb3d": {"loops": 12, "better": 4, "equal": 8, "worse": 0},
    "146.wave5": {"loops": 133, "better": 57, "equal": 76, "worse": 0},
    "171.swim": {"loops": 14, "better": 5, "equal": 9, "worse": 0},
    "172.mgrid": {"loops": 16, "better": 9, "equal": 7, "worse": 0},
    "301.apsi": {"loops": 61, "better": 18, "equal": 42, "worse": 1},
}

PAPER_TABLE4 = {
    "093.nasa7": {"considered": 1.04, "ignored": 0.78},
    "101.tomcatv": {"considered": 1.38, "ignored": 1.22},
    "103.su2cor": {"considered": 1.15, "ignored": 1.02},
    "104.hydro2d": {"considered": 1.03, "ignored": 0.98},
    "125.turb3d": {"considered": 0.95, "ignored": 0.81},
    "146.wave5": {"considered": 1.03, "ignored": 0.99},
    "171.swim": {"considered": 1.17, "ignored": 1.08},
    "172.mgrid": {"considered": 1.26, "ignored": 1.14},
    "301.apsi": {"considered": 1.02, "ignored": 0.97},
}

PAPER_TABLE5 = {
    "093.nasa7": {"misaligned": 1.04, "aligned": 1.07},
    "101.tomcatv": {"misaligned": 1.38, "aligned": 1.48},
    "103.su2cor": {"misaligned": 1.15, "aligned": 1.16},
    "104.hydro2d": {"misaligned": 1.03, "aligned": 1.05},
    "125.turb3d": {"misaligned": 0.95, "aligned": 0.95},
    "146.wave5": {"misaligned": 1.03, "aligned": 1.04},
    "171.swim": {"misaligned": 1.17, "aligned": 1.21},
    "172.mgrid": {"misaligned": 1.26, "aligned": 1.26},
    "301.apsi": {"misaligned": 1.02, "aligned": 1.02},
}

PAPER_FIGURE1 = {
    "modulo": 2.0,
    "traditional": 3.0,
    "full": 1.5,
    "selective": 1.0,
}


def _rule(widths: list[int]) -> str:
    return "-+-".join("-" * w for w in widths)


def render_table(
    headers: list[str],
    rows: list[list[str]],
    title: str | None = None,
) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(_rule(widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """A grid as a markdown table."""
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


#: Per speedup table: its title, and the measured columns each row
#: shows beside the paper's value.
_SPEEDUP_TABLES = {
    "table2": (
        "Table 2. Speedup over modulo scheduling — measured (paper)",
        ("traditional", "full", "selective"),
        PAPER_TABLE2,
    ),
    "table4": (
        "Table 4. Selective speedup with communication considered vs "
        "ignored — measured (paper)",
        ("considered", "ignored"),
        PAPER_TABLE4,
    ),
    "table5": (
        "Table 5. Selective speedup with memory assumed misaligned vs "
        "aligned — measured (paper)",
        ("misaligned", "aligned"),
        PAPER_TABLE5,
    ),
}


def experiment_table(
    experiment: str, data: dict
) -> tuple[str, list[str], list[list[str]]]:
    """The grid of one experiment's result: ``(title, headers, rows)``,
    each measured cell beside the paper's value.  ``data`` is the
    experiment's result as ``bench_io.collect_experiment`` returns it.
    """
    if experiment == "figure1":
        return (
            "Figure 1. Dot product on the three-issue example machine",
            ["Technique", "II/iteration", "Paper"],
            [
                [label, f"{data[label]:.2f}", f"{paper:.2f}"]
                for label, paper in PAPER_FIGURE1.items()
            ],
        )
    if experiment == "table3":
        rows = []
        for name, r in data.items():
            p = PAPER_TABLE3[name]
            res = r["res_mii"]
            fin = r["final_ii"]
            rows.append(
                [
                    name,
                    f"{r['loops']} ({p['loops']})",
                    f"{res['better']}/{res['equal']}/{res['worse']}"
                    f" ({p['better']}/{p['equal']}/{p['worse']})",
                    f"{fin['better']}/{fin['equal']}/{fin['worse']}",
                ]
            )
        return (
            "Table 3. Loops where selective vectorization finds a better/"
            "equal/worse II (resource-limited loops)",
            ["Benchmark", "Loops", "ResMII b/e/w (paper)", "Final II b/e/w"],
            rows,
        )
    title, columns, paper_rows = _SPEEDUP_TABLES[experiment]
    rows = [
        [name]
        + [f"{r[c]:.2f} ({paper_rows[name][c]:.2f})" for c in columns]
        for name, r in data.items()
    ]
    if experiment == "table2":
        mean = sum(r["selective"] for r in data.values()) / len(data)
        rows.append(["(mean selective)", "", "", f"{mean:.2f} (1.11)"])
    return title, ["Benchmark"] + [c.capitalize() for c in columns], rows


def format_experiment(experiment: str, data: dict) -> str:
    """One experiment's result as the text table the CLI prints."""
    title, headers, rows = experiment_table(experiment, data)
    return render_table(headers, rows, title=title)
