"""Cross-run analytics over the ledger.

The noise discipline: **wall-clock deltas only count when they clear
both a relative and an absolute threshold** (:func:`wall_significant`);
**deterministic deltas — effort counters, per-loop IIs, table speedups
— are exact** (the corpus and the compiler are pure, so any change is a
real change).

Queries:

* :func:`compare_runs` — run B against run A; regressions ranked by
  exact effort delta first (the same ranking the dashboard's
  "top regressions" table uses), plus per-phase deltas when both runs
  carry a profile;
* :func:`trend` — one metric's value across runs, by dotted path;
* :func:`outliers` — runs whose metric deviates from the median by more
  than ``k`` robust standard deviations (MAD-based);
* :func:`summarize` — the per-run listing rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ledger.record import RunRecord, strip_wall_fields
from repro.profiling.profile import ROOT_NAME, PhaseProfile, Profile

#: Deterministic float metrics (speedups, IIs) still ride through
#: floating point; equality below this is equality.
EXACT_EPSILON = 1e-9

#: Wall-time deltas below these thresholds are treated as noise.
DEFAULT_WALL_REL = 0.20  # 20 % relative change, and
DEFAULT_WALL_ABS_MS = 1.0  # at least 1 ms absolute change.


def wall_significant(
    a_ns: int, b_ns: int, rel: float, abs_ms: float
) -> bool:
    """True when a wall-clock delta clears *both* noise thresholds."""
    delta = abs(b_ns - a_ns)
    if delta < abs_ms * 1e6:
        return False
    base = max(a_ns, 1)
    return delta / base >= rel


@dataclass
class MetricDelta:
    """One metric's change from run A to run B."""

    kind: str  # "effort" | "ii" | "speedup" | "wall" | "check"
    path: str
    a: float
    b: float
    #: Exact metrics are deterministic: any delta is real.  Non-exact
    #: (wall) metrics are noise-gated.
    exact: bool
    significant: bool

    @property
    def delta(self) -> float:
        return self.b - self.a

    def render(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return (
            f"[{self.kind}] {self.path}: {self.a:g} -> {self.b:g} "
            f"({sign}{self.delta:g})"
        )


@dataclass
class RunComparison:
    """Run B against run A, grouped by metric family."""

    a: RunRecord
    b: RunRecord
    #: Exact effort-counter deltas, ranked by |delta| descending —
    #: the dashboard's "top regressions" order.
    effort: list[MetricDelta] = field(default_factory=list)
    #: Exact per-loop II deltas (any change is a real schedule change).
    iis: list[MetricDelta] = field(default_factory=list)
    #: Exact speedup drifts.
    speedups: list[MetricDelta] = field(default_factory=list)
    #: Noise-gated wall-clock deltas (informational).
    walls: list[MetricDelta] = field(default_factory=list)
    #: Check/oracle outcome changes.
    checks: list[MetricDelta] = field(default_factory=list)
    #: Per-phase deltas of the runs' profiles, or ``None`` unless both
    #: records carry one.  Counter deltas are exact, phase wall times
    #: noise-gated.  A profile covers only the compiles a run did
    #: in-process and uncached, so this family informs and never gates:
    #: it stays out of :meth:`exact_deltas`, :meth:`ranked` and
    #: :attr:`clean`.
    phases: list[MetricDelta] | None = None

    def exact_deltas(self) -> list[MetricDelta]:
        return self.effort + self.iis + self.speedups + self.checks

    def ranked(self) -> list[MetricDelta]:
        """Every significant delta, exact families first, each ranked by
        magnitude (effort by absolute delta, the rest by |delta|)."""
        return (
            sorted(self.effort, key=lambda d: -abs(d.delta))
            + sorted(self.iis, key=lambda d: -abs(d.delta))
            + sorted(self.speedups, key=lambda d: -abs(d.delta))
            + sorted(self.checks, key=lambda d: -abs(d.delta))
            + sorted(
                [d for d in self.walls if d.significant],
                key=lambda d: -abs(d.delta),
            )
        )

    @property
    def clean(self) -> bool:
        """No exact delta at all — byte-for-byte the same compilation."""
        return not self.exact_deltas()


def _walk_numeric(tree: object, prefix: str = "") -> dict[str, float]:
    leaves: dict[str, float] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_walk_numeric(value, path))
    elif isinstance(tree, bool):
        pass
    elif isinstance(tree, (int, float)):
        leaves[prefix] = float(tree)
    return leaves


def _exact_deltas(
    kind: str, a_tree: object, b_tree: object, *, prefix: str = ""
) -> list[MetricDelta]:
    a_leaves = _walk_numeric(a_tree, prefix)
    b_leaves = _walk_numeric(b_tree, prefix)
    deltas = []
    for path in sorted(set(a_leaves) | set(b_leaves)):
        av = a_leaves.get(path, 0.0)
        bv = b_leaves.get(path, 0.0)
        if abs(bv - av) > EXACT_EPSILON:
            deltas.append(
                MetricDelta(
                    kind=kind, path=path, a=av, b=bv, exact=True,
                    significant=True,
                )
            )
    return deltas


def _phase_deltas(
    a_doc: dict, b_doc: dict, wall_rel: float, wall_abs_ms: float
) -> list[MetricDelta]:
    """Two profile documents lined up by phase path, in A-then-B order;
    a phase missing on one side compares against zeros.  Every counter
    that differs is a delta; a phase's total wall time only when it
    clears both noise thresholds."""
    a_phases = Profile.from_dict(a_doc).phases()
    b_phases = Profile.from_dict(b_doc).phases()
    absent = PhaseProfile("", "")
    deltas = []
    for path in list(a_phases) + [p for p in b_phases if p not in a_phases]:
        an = a_phases.get(path, absent)
        bn = b_phases.get(path, absent)
        label = path or ROOT_NAME
        if wall_significant(an.total_ns, bn.total_ns, wall_rel, wall_abs_ms):
            deltas.append(
                MetricDelta(
                    kind="wall", path=f"{label} total_ms",
                    a=an.total_ns / 1e6, b=bn.total_ns / 1e6, exact=False,
                    significant=True,
                )
            )
        for name in sorted(set(an.counters) | set(bn.counters)):
            av = an.counters.get(name, 0)
            bv = bn.counters.get(name, 0)
            if av != bv:
                deltas.append(
                    MetricDelta(
                        kind="effort", path=f"{label} {name}", a=av, b=bv,
                        exact=True, significant=True,
                    )
                )
    return deltas


def compare_runs(
    a: RunRecord,
    b: RunRecord,
    *,
    wall_rel: float = DEFAULT_WALL_REL,
    wall_abs_ms: float = DEFAULT_WALL_ABS_MS,
) -> RunComparison:
    """Diff run ``b`` against run ``a``: effort/II/speedup deltas exact,
    wall deltas noise-gated, per-phase deltas when both carry a profile."""
    comparison = RunComparison(a=a, b=b)

    comparison.effort = _exact_deltas(
        "effort", a.effort, b.effort, prefix="effort"
    )
    # Per-(benchmark, variant) effort counters give the drill-down the
    # ranking needs ("which benchmark got more expensive"); wall and
    # cache-traffic fields inside telemetry are volatile and stripped.
    comparison.effort += _exact_deltas(
        "effort",
        strip_wall_fields(a.telemetry),
        strip_wall_fields(b.telemetry),
        prefix="telemetry",
    )
    comparison.effort.sort(key=lambda d: -abs(d.delta))

    comparison.iis = [
        d
        for d in _exact_deltas("ii", a.loops, b.loops, prefix="loop")
        if d.path.endswith((".ii", ".res_mii", ".rec_mii"))
    ]
    comparison.speedups = _exact_deltas(
        "speedup", a.experiments, b.experiments, prefix="experiments"
    )
    # Outcome counts are exact; their wall fields (``check_ms``) are not.
    comparison.checks = _exact_deltas(
        "check",
        strip_wall_fields(a.check or {}),
        strip_wall_fields(b.check or {}),
        prefix="check",
    ) + _exact_deltas(
        "check",
        strip_wall_fields(a.oracle or {}),
        strip_wall_fields(b.oracle or {}),
        prefix="oracle",
    )

    a_wall_ns = int(a.wall_s * 1e9)
    b_wall_ns = int(b.wall_s * 1e9)
    comparison.walls = [
        MetricDelta(
            kind="wall",
            path="wall_s",
            a=a.wall_s,
            b=b.wall_s,
            exact=False,
            significant=wall_significant(
                a_wall_ns, b_wall_ns, wall_rel, wall_abs_ms
            ),
        )
    ]
    # Records written before profiles were embedded hold a file path
    # (or nothing) here; they compare without a phase block.
    if isinstance(a.profile, dict) and isinstance(b.profile, dict):
        comparison.phases = _phase_deltas(
            a.profile, b.profile, wall_rel, wall_abs_ms
        )
    return comparison


def render_comparison(comparison: RunComparison) -> str:
    a, b = comparison.a, comparison.b
    lines = [
        f"== run comparison: {b.run_id} vs {a.run_id} ==",
        f"A: {a.summary_line()}",
        f"B: {b.summary_line()}",
        "",
    ]
    n_effort = len(comparison.effort)
    ranked = comparison.ranked()
    if ranked:
        lines.append("-- ranked deltas (exact families first) --")
        lines += [f"  {d.render()}" for d in ranked]
    else:
        lines.append("(no significant delta)")
    wall = comparison.walls[0] if comparison.walls else None
    if wall is not None and not wall.significant:
        lines.append(
            f"  [wall] wall_s: {wall.a:g} -> {wall.b:g} "
            "(below noise thresholds; informational)"
        )
    phases = comparison.phases
    if phases is not None:
        lines += ["", "-- per-phase deltas (profiles; informational) --"]
        lines += [f"  {d.render()}" for d in phases] or [
            "  (no per-phase delta)"
        ]
    lines.append("")
    lines.append(
        f"compare: {n_effort} effort delta(s), "
        f"{len(comparison.iis)} II delta(s), "
        f"{len(comparison.speedups)} speedup drift(s), "
        f"{len(comparison.checks)} check/oracle delta(s), "
        f"{sum(1 for d in comparison.walls if d.significant)} "
        f"significant wall change(s)"
        + (
            ""
            if phases is None
            else f", {sum(d.exact for d in phases)} per-phase counter delta(s)"
        )
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trends & outliers


def metric_value(record: RunRecord, metric: str) -> float | None:
    """Resolve a dotted metric path inside a record's document.

    Examples: ``effort.sched_attempts``, ``wall_s``, ``cache.hits``,
    ``experiments.table2.101.tomcatv.selective``,
    ``loops.101.tomcatv.101.tomcatv.L0.selective.ii`` — path segments
    may themselves contain dots, so resolution greedily matches the
    longest key at each level.
    """
    node: object = record.to_dict()
    remainder = metric
    while remainder:
        if not isinstance(node, dict):
            return None
        if remainder in node:
            node = node[remainder]
            break
        # Greedy longest-key match so benchmark names with dots work.
        candidates = [
            key
            for key in node
            if remainder.startswith(f"{key}.")
        ]
        if not candidates:
            return None
        key = max(candidates, key=len)
        node = node[key]
        remainder = remainder[len(key) + 1 :]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def trend(
    records: list[RunRecord], metric: str
) -> list[tuple[RunRecord, float | None]]:
    """``metric`` across runs, oldest first (ledger append order)."""
    return [(record, metric_value(record, metric)) for record in records]


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def spark_line(values: list[float | None]) -> str:
    """A unicode sparkline (missing values render as spaces)."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for v in values:
        if v is None:
            chars.append(" ")
        elif span <= 0:
            chars.append(SPARK_CHARS[3])
        else:
            idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
            chars.append(SPARK_CHARS[idx])
    return "".join(chars)


def render_trend(
    records: list[RunRecord], metric: str
) -> str:
    points = trend(records, metric)
    lines = [f"== trend: {metric} ({len(points)} run(s)) =="]
    values = [v for _, v in points]
    spark = spark_line(values)
    if spark:
        lines.append(f"  {spark}")
    for record, value in points:
        rendered = "-" if value is None else f"{value:g}"
        lines.append(
            f"  {record.run_id:<28} {record.created_at}  "
            f"{record.label or '-':<10} {rendered:>14}"
        )
    return "\n".join(lines)


@dataclass
class Outlier:
    record: RunRecord
    value: float
    median: float
    deviation: float  # in robust sigmas


def outliers(
    records: list[RunRecord], metric: str, *, k: float = 3.0
) -> list[Outlier]:
    """Runs whose ``metric`` sits more than ``k`` robust standard
    deviations (1.4826·MAD) from the cross-run median."""
    points = [
        (record, value)
        for record, value in trend(records, metric)
        if value is not None
    ]
    if len(points) < 3:
        return []
    values = sorted(v for _, v in points)
    mid = len(values) // 2
    median = (
        values[mid]
        if len(values) % 2
        else (values[mid - 1] + values[mid]) / 2.0
    )
    abs_dev = sorted(abs(v - median) for v in values)
    mad = (
        abs_dev[mid]
        if len(abs_dev) % 2
        else (abs_dev[mid - 1] + abs_dev[mid]) / 2.0
    )
    sigma = 1.4826 * mad
    found = []
    for record, value in points:
        if sigma <= 0:
            if value != median:
                found.append(
                    Outlier(record, value, median, float("inf"))
                )
            continue
        deviation = abs(value - median) / sigma
        if deviation > k:
            found.append(Outlier(record, value, median, deviation))
    found.sort(key=lambda o: -o.deviation)
    return found


def render_outliers(found: list[Outlier], metric: str) -> str:
    if not found:
        return f"outliers: none for {metric}"
    lines = [f"== outliers: {metric} =="]
    for o in found:
        sigmas = "inf" if o.deviation == float("inf") else f"{o.deviation:.1f}"
        lines.append(
            f"  {o.record.run_id:<28} value {o.value:g} "
            f"(median {o.median:g}, {sigmas} robust sigma)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Listing


def summarize(records: list[RunRecord]) -> str:
    if not records:
        return "(ledger is empty)"
    header = (
        f"{'run id':<28} {'created (UTC)':<21} {'sha':<8}  "
        f"{'label':<10} {'loops':>5} {'effort':>12} {'wall s':>8}  experiments"
    )
    lines = ["== ledger runs (oldest first) ==", header]
    for record in records:
        lines.append(
            f"{record.run_id:<28} {record.created_at:<21} "
            f"{(record.git_sha or '-')[:8]:<8}  "
            f"{record.label or '-':<10} {record.loop_count():>5} "
            f"{record.effort_total():>12} {record.wall_s:>8.3f}  "
            + ",".join(sorted(record.experiments))
        )
    return "\n".join(lines)
