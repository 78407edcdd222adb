"""Differential profiling: align two profiles by phase path and report
what changed.

Wall time is noisy (machine load, CPU frequency, allocator luck), so
wall deltas only count when they clear *both* a relative and an absolute
threshold.  Effort counters are deterministic — pure functions of the
corpus and the compiler — so their threshold is exact: any nonzero delta
is real.  That split is what makes "this PR made scheduling 2x slower on
table2" a one-command answer: run ``python -m repro.profiling diff
old.json new.json`` and read the per-phase report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.profiling.profile import PhaseProfile, Profile

#: Wall-time deltas below these thresholds are treated as noise.
DEFAULT_WALL_REL = 0.20  # 20 % relative change, and
DEFAULT_WALL_ABS_MS = 1.0  # at least 1 ms absolute change.


@dataclass
class PhaseDelta:
    """One phase's differences between profile A and profile B."""

    path: str
    a_total_ns: int = 0
    b_total_ns: int = 0
    a_self_ns: int = 0
    b_self_ns: int = 0
    a_calls: int = 0
    b_calls: int = 0
    wall_significant: bool = False
    #: counter -> (a value, b value); only counters that differ.
    counter_deltas: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def total_delta_ns(self) -> int:
        return self.b_total_ns - self.a_total_ns

    @property
    def self_delta_ns(self) -> int:
        return self.b_self_ns - self.a_self_ns

    @property
    def ratio(self) -> float:
        """B total over A total (inf when A is empty)."""
        if self.a_total_ns <= 0:
            return float("inf") if self.b_total_ns > 0 else 1.0
        return self.b_total_ns / self.a_total_ns

    @property
    def has_effort_delta(self) -> bool:
        return bool(self.counter_deltas)

    @property
    def significant(self) -> bool:
        return self.wall_significant or self.has_effort_delta


def wall_significant(
    a_ns: int, b_ns: int, rel: float, abs_ms: float
) -> bool:
    """True when a wall-clock delta clears *both* noise thresholds.

    Shared noise discipline: the profile diff and the dashboard's
    cross-run comparison both gate wall time through this predicate.
    """
    delta = abs(b_ns - a_ns)
    if delta < abs_ms * 1e6:
        return False
    base = max(a_ns, 1)
    return delta / base >= rel


def diff_profiles(
    a: Profile,
    b: Profile,
    *,
    wall_rel: float = DEFAULT_WALL_REL,
    wall_abs_ms: float = DEFAULT_WALL_ABS_MS,
) -> list[PhaseDelta]:
    """Per-phase deltas of ``b`` against ``a``, aligned by phase path.

    Returns one :class:`PhaseDelta` per path present in either profile
    (in A-then-B discovery order); phases absent on one side compare
    against zeros.
    """
    a_phases = a.phases()
    b_phases = b.phases()
    deltas: list[PhaseDelta] = []
    for path in list(a_phases) + [
        p for p in b_phases if p not in a_phases
    ]:
        an: PhaseProfile | None = a_phases.get(path)
        bn: PhaseProfile | None = b_phases.get(path)
        delta = PhaseDelta(
            path=path,
            a_total_ns=an.total_ns if an else 0,
            b_total_ns=bn.total_ns if bn else 0,
            a_self_ns=an.self_ns if an else 0,
            b_self_ns=bn.self_ns if bn else 0,
            a_calls=an.calls if an else 0,
            b_calls=bn.calls if bn else 0,
        )
        delta.wall_significant = wall_significant(
            delta.a_total_ns, delta.b_total_ns, wall_rel, wall_abs_ms
        )
        names = set(an.counters if an else {}) | set(bn.counters if bn else {})
        for name in sorted(names):
            av = (an.counters.get(name, 0) if an else 0)
            bv = (bn.counters.get(name, 0) if bn else 0)
            if av != bv:
                delta.counter_deltas[name] = (av, bv)
        deltas.append(delta)
    return deltas


def effort_deltas(deltas: list[PhaseDelta]) -> list[PhaseDelta]:
    """The phases whose deterministic effort counters changed at all."""
    return [d for d in deltas if d.has_effort_delta]


def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:.3f}"


def _fmt_ratio(ratio: float) -> str:
    if ratio == float("inf"):
        return "new"
    return f"{ratio:.2f}x"


def render_diff(
    deltas: list[PhaseDelta], *, show_all: bool = False
) -> str:
    """Human-readable diff report: significant wall changes first, then
    every effort-counter delta (always shown — they are exact)."""
    lines: list[str] = ["== profile diff (B vs A) =="]

    wall = [d for d in deltas if d.wall_significant or show_all]
    wall.sort(key=lambda d: -abs(d.total_delta_ns))
    if wall:
        lines.append("")
        lines.append(
            f"{'phase':<48} {'A ms':>10} {'B ms':>10} {'delta ms':>10} {'ratio':>7}"
        )
        for d in wall:
            label = (d.path or "(session)")[:48]
            lines.append(
                f"{label:<48} {_fmt_ms(d.a_total_ns):>10} "
                f"{_fmt_ms(d.b_total_ns):>10} "
                f"{_fmt_ms(d.total_delta_ns):>10} {_fmt_ratio(d.ratio):>7}"
            )
    else:
        lines.append("(no wall-time change clears the noise thresholds)")

    effort = effort_deltas(deltas)
    if effort:
        lines.append("")
        lines.append("-- effort deltas (deterministic; any change is real) --")
        for d in effort:
            for name, (av, bv) in sorted(d.counter_deltas.items()):
                sign = "+" if bv >= av else ""
                lines.append(
                    f"  {d.path or '(session)'}: {name} "
                    f"{av} -> {bv} ({sign}{bv - av})"
                )
    n_effort = sum(len(d.counter_deltas) for d in effort)
    lines.append("")
    lines.append(
        f"profile diff: {n_effort} effort counter delta(s) across "
        f"{len(effort)} phase(s), "
        f"{sum(1 for d in deltas if d.wall_significant)} significant "
        f"wall-time change(s)"
    )
    return "\n".join(lines)
