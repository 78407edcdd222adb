"""``python -m bench compare A B [A2 B2 ...]``: do two sets of runs agree?

Arguments alternate between the sides: A, A2, ... are the first set and
B, B2, ... the second; each is a result file or a directory of them (the
``--out`` of ``python -m bench run``).  For every (workload, end-to-end
metric) the report gives each side's median and quartiles and a verdict
against the metric's ``BENCHMARK.json`` bound:

* ``ok``: the second side's median is not worse by more than the bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the spread of a side's runs is wider than the bound,
  and neither side's runs all read better than the other's.

Exact metrics (generated-code quality and the layers' work counts) must
be identical in every run of both sides; ``fail_rate`` may not rise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from bench.run import fail_rate
from bench.stats import quartiles

#: End-to-end metrics that are a deterministic function of the corpus.
EXACT_END_TO_END = frozenset({"ii_per_iter_geomean"})
#: Per-layer metrics that depend on timing, not only on the corpus.
_TIMED_SUFFIXES = (".self_s", ".share", "_ms", "_p50", "overhead_ratio")
_TIMED_PREFIXES = ("serve.", "store.", "trace.")


def exact_per_layer(name: str) -> bool:
    return not (name.endswith(_TIMED_SUFFIXES) or name.startswith(_TIMED_PREFIXES))


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Result documents by workload."""
    docs: dict[str, list[dict]] = {}
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            doc = json.loads(file.read_text(encoding="utf-8"))
            docs.setdefault(doc["workload"], []).append(doc)
    return docs


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]
    b: tuple[float, float, float]
    worse: float
    verdict: str


def _relative(base: float, value: float) -> float:
    if base == value:
        return 0.0
    return (value - base) / abs(base) if base else float("inf")


def spread(q: tuple[float, float, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if q[2] == q[0]:
        return 0.0
    return (q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(how much worse the second side's median is, as a share of the
    first's; verdict)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * _relative(qa[1], qb[1])
    widest = max(spread(qa), spread(qb))
    b_all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if widest > bound:
        if b_all_worse and worse > bound:
            return worse, "regressed"
        return worse, "ok" if b_all_better else "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def _exact(a: list[float], b: list[float]) -> str:
    return "ok" if len(set(a) | set(b)) == 1 else "regressed"


def compare(a_docs: dict[str, list[dict]], b_docs: dict[str, list[dict]], spec: dict) -> list[Row]:
    rows: list[Row] = []
    for workload in sorted(set(a_docs) & set(b_docs)):
        a, b = a_docs[workload], b_docs[workload]

        def values(docs: list[dict], run: str, name: str) -> list[float]:
            return [d[run]["result"]["metrics"][name]["value"] for d in docs]

        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = values(a, "untraced", name), values(b, "untraced", name)
            if name in EXACT_END_TO_END:
                worse, verdict = judge(va, vb, metric["better"], 0.0)[0], _exact(va, vb)
            else:
                worse, verdict = judge(va, vb, metric["better"], metric["bound"])
            rows.append(
                Row(workload, name, metric["unit"], quartiles(va), quartiles(vb), worse, verdict)
            )
        fa = [fail_rate(d[run]["result"]) for d in a for run in ("untraced", "traced")]
        fb = [fail_rate(d[run]["result"]) for d in b for run in ("untraced", "traced")]
        rows.append(
            Row(
                workload,
                "fail_rate",
                "ratio",
                quartiles(fa),
                quartiles(fb),
                max(fb) - max(fa),
                "regressed" if max(fb) > max(fa) else "ok",
            )
        )
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not exact_per_layer(name):
                continue
            va, vb = values(a, "traced", name), values(b, "traced", name)
            verdict = _exact(va, vb)
            if verdict != "ok":
                rows.append(
                    Row(workload, name, metric["unit"], quartiles(va), quartiles(vb), 0.0, verdict)
                )
    return rows


def _q(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def report(rows: list[Row], a_runs: dict, b_runs: dict) -> str:
    lines = [
        f"{'workload':<18} {'metric':<22} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'worse':>8}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r.workload:<18} {r.metric:<22} {_q(r.a):>32} {_q(r.b):>32} "
            f"{r.worse:>+8.2%}  {r.verdict}"
        )
    for workload in sorted(set(a_runs) & set(b_runs)):
        lines.append(
            f"{workload}: {len(a_runs[workload])} run(s) vs {len(b_runs[workload])} run(s); "
            "exact per-layer counts identical unless listed above"
        )
    for workload in sorted(set(a_runs) ^ set(b_runs)):
        lines.append(f"{workload}: results on one side only, not compared")
    return "\n".join(lines)
