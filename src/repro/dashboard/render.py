"""Self-contained HTML observability dashboard.

``render_dashboard`` turns a ledger's run history into **one HTML file
with zero external dependencies** — no scripts, no fonts, no CSS or
image fetches; every chart is inline SVG — so the file can be archived
as a CI artifact, mailed around, or opened from disk years later and
still render identically.

Sections:

* headline stat tiles for the latest run (loops, effort, cache hit
  rate, wall clock) each with a cross-run sparkline;
* per-metric trend sparklines (effort counters exact; wall informational)
  and per-experiment headline trends (mean speedups, Figure 1 IIs);
* top regressions — latest vs previous run, ranked by exact effort
  delta, with II changes and speedup drifts (wall deltas shown only when
  they clear the compare noise thresholds, and marked as such);
* per-experiment result grids for the latest run;
* per-benchmark drill-down: per-loop II/ResMII/RecMII by variant, plus
  check/oracle outcomes and run notes.

Colors follow the repo-neutral validated reference palette (light and
dark selected separately, switched via ``prefers-color-scheme`` and a
``data-theme`` override); numbers in tables use tabular figures; status
is never conveyed by color alone (each delta carries a direction glyph
and text).
"""

from __future__ import annotations

import html
from typing import Sequence

from repro.dashboard.queries import (
    MetricDelta,
    compare_runs,
    trend,
)
from repro.ledger.record import RunRecord
from repro.ledger.store import Ledger
from repro.observability.effort import EFFORT

DASHBOARD_TITLE = "repro observability dashboard"

_CSS = """
:root {
  color-scheme: light dark;
}
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --status-good:    #006300;
  --status-bad:     #d03b3b;
  --status-warn:    #ec835a;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
  line-height: 1.45;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --status-good:    #0ca30c;
    --status-bad:     #d03b3b;
    --status-warn:    #ec835a;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --gridline:       #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --status-good:    #0ca30c;
  --status-bad:     #d03b3b;
  --status-warn:    #ec835a;
}
.viz-root h1 { font-size: 20px; margin: 0 0 2px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 10px; }
.viz-root .subtitle { color: var(--text-secondary); margin: 0 0 18px; }
.viz-root .muted { color: var(--text-muted); }
.viz-root section.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 16px 18px;
  margin-bottom: 16px;
}
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 16px;
  min-width: 150px;
}
.viz-root .tile .label {
  font-size: 12px; color: var(--text-secondary);
}
.viz-root .tile .value {
  font-size: 26px; font-weight: 600; margin: 2px 0;
}
.viz-root .tile .context { font-size: 12px; color: var(--text-muted); }
.viz-root .sparks {
  display: grid;
  grid-template-columns: repeat(auto-fill, minmax(230px, 1fr));
  gap: 10px 22px;
}
.viz-root .spark-row { display: flex; align-items: center; gap: 10px; }
.viz-root .spark-row .name {
  flex: 1; font-size: 12px; color: var(--text-secondary);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
}
.viz-root .spark-row .last {
  font-size: 12px; font-weight: 600; min-width: 56px; text-align: right;
}
.viz-root table {
  border-collapse: collapse; width: 100%; font-size: 13px;
}
.viz-root th, .viz-root td {
  text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--gridline);
}
.viz-root th {
  color: var(--text-muted); font-weight: 500; font-size: 12px;
}
.viz-root td.num, .viz-root th.num {
  text-align: right; font-variant-numeric: tabular-nums;
}
.viz-root .delta-bad { color: var(--status-bad); font-weight: 600; }
.viz-root .delta-good { color: var(--status-good); }
.viz-root .delta-info { color: var(--text-muted); }
.viz-root .badge {
  display: inline-block; font-size: 11px; padding: 1px 8px;
  border: 1px solid var(--border); border-radius: 999px;
  color: var(--text-secondary);
}
.viz-root details { margin: 6px 0; }
.viz-root summary { cursor: pointer; color: var(--text-secondary); }
.viz-root footer {
  margin-top: 24px; font-size: 12px; color: var(--text-muted);
}
.viz-root .ok-line { color: var(--text-secondary); }
"""


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float | None) -> str:
    if value is None:
        return "–"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _compact(value: float | None) -> str:
    """Auto-compact figure for tiles: 1,284 / 12.9K / 4.2M."""
    if value is None:
        return "–"
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:.1f}M"
    if magnitude >= 10_000:
        return f"{value / 1e3:.1f}K"
    return _fmt(value)


# ----------------------------------------------------------------------
# Inline SVG sparkline


def svg_sparkline(
    values: Sequence[float | None],
    *,
    width: int = 120,
    height: int = 30,
    pad: int = 4,
) -> str:
    """A 2px polyline sparkline with a ringed end dot, as inline SVG.

    Missing values break the line.  One series per sparkline, so no
    legend is needed — the adjacent label names it (dataviz rule: a
    single series carries no legend box).
    """
    points = [
        (i, float(v)) for i, v in enumerate(values) if v is not None
    ]
    if not points:
        return (
            f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img" '
            'aria-label="no data"></svg>'
        )
    lo = min(v for _, v in points)
    hi = max(v for _, v in points)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / n)
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        return round(x, 2), round(y, 2)

    # Split into segments at gaps so missing runs do not interpolate.
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for i, v in enumerate(values):
        if v is None:
            if current:
                segments.append(current)
            current = []
        else:
            current.append(xy(i, float(v)))
    if current:
        segments.append(current)

    parts = [
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend, last {_esc(_fmt(points[-1][1]))}">'
    ]
    parts.append(
        f'<title>min {_esc(_fmt(lo))}, max {_esc(_fmt(hi))}, '
        f'last {_esc(_fmt(points[-1][1]))}</title>'
    )
    for segment in segments:
        if len(segment) == 1:
            continue
        coords = " ".join(f"{x},{y}" for x, y in segment)
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            'stroke="var(--series-1)" stroke-width="2" '
            'stroke-linecap="round" stroke-linejoin="round"/>'
        )
    end_x, end_y = xy(*points[-1])
    # End-dot with a 2px surface ring so it stays legible on the line.
    parts.append(
        f'<circle cx="{end_x}" cy="{end_y}" r="3" '
        'fill="var(--series-1)" stroke="var(--surface-1)" '
        'stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _spark_row(name: str, values: list[float | None]) -> str:
    present = [v for v in values if v is not None]
    last = present[-1] if present else None
    return (
        '<div class="spark-row">'
        f'<span class="name" title="{_esc(name)}">{_esc(name)}</span>'
        + svg_sparkline(values)
        + f'<span class="last">{_esc(_fmt(last))}</span>'
        "</div>"
    )


# ----------------------------------------------------------------------
# Sections


def _tiles(records: list[RunRecord]) -> str:
    latest = records[-1]

    def series(fn) -> list[float | None]:
        return [fn(r) for r in records]

    cache = latest.cache or {}
    seen = int(cache.get("hits") or 0) + int(cache.get("misses") or 0)
    hit_rate = (100.0 * int(cache.get("hits") or 0) / seen) if seen else None
    tiles = [
        (
            "Loops compiled",
            _compact(float(latest.loop_count() or latest.config.get("loops", 0) or 0)),
            series(lambda r: float(r.loop_count()) or None),
            "latest run",
        ),
        (
            "Scheduler attempts",
            _compact(float(latest.effort.get("sched_attempts", 0))),
            series(lambda r: float(r.effort.get("sched_attempts", 0))),
            "deterministic effort",
        ),
        (
            "KL pack steps",
            _compact(float(latest.effort.get("kl_pack_steps", 0))),
            series(lambda r: float(r.effort.get("kl_pack_steps", 0))),
            "deterministic effort",
        ),
        (
            "Cache hit rate",
            "–" if hit_rate is None else f"{hit_rate:.0f}%",
            series(
                lambda r: (
                    100.0
                    * int((r.cache or {}).get("hits") or 0)
                    / max(
                        int((r.cache or {}).get("hits") or 0)
                        + int((r.cache or {}).get("misses") or 0),
                        1,
                    )
                )
            ),
            "this run's circumstance",
        ),
        (
            "Wall clock",
            f"{latest.wall_s:.1f}s",
            series(lambda r: r.wall_s or None),
            "informational, noisy",
        ),
    ]
    out = ['<div class="tiles">']
    for label, value, values, context in tiles:
        out.append(
            '<div class="tile">'
            f'<div class="label">{_esc(label)}</div>'
            f'<div class="value">{_esc(value)}</div>'
            + svg_sparkline(values, width=110, height=22)
            + f'<div class="context">{_esc(context)}</div>'
            "</div>"
        )
    out.append("</div>")
    return "".join(out)


def _experiment_trend_series(
    records: list[RunRecord],
) -> list[tuple[str, list[float | None]]]:
    """Per-experiment headline series: figure1 IIs per strategy; mean
    speedup per column for the table experiments."""
    series: list[tuple[str, list[float | None]]] = []
    experiments: list[str] = []
    for record in records:
        for name in record.experiments:
            if name not in experiments:
                experiments.append(name)
    for experiment in sorted(experiments):
        columns: list[str] = []
        for record in records:
            data = record.experiments.get(experiment)
            if not isinstance(data, dict):
                continue
            if experiment == "figure1":
                for column in data:
                    if column not in columns:
                        columns.append(column)
            else:
                for row in data.values():
                    if isinstance(row, dict):
                        for column in row:
                            if column not in columns and isinstance(
                                row[column], (int, float)
                            ):
                                columns.append(column)
        for column in columns:
            values: list[float | None] = []
            for record in records:
                data = record.experiments.get(experiment)
                if not isinstance(data, dict):
                    values.append(None)
                elif experiment == "figure1":
                    v = data.get(column)
                    values.append(
                        float(v) if isinstance(v, (int, float)) else None
                    )
                else:
                    cells = [
                        row[column]
                        for row in data.values()
                        if isinstance(row, dict)
                        and isinstance(row.get(column), (int, float))
                    ]
                    values.append(
                        sum(cells) / len(cells) if cells else None
                    )
            label = (
                f"figure1 · {column} II"
                if experiment == "figure1"
                else f"{experiment} · mean {column}"
            )
            series.append((label, values))
    return series


def _trends(records: list[RunRecord]) -> str:
    rows = []
    for counter in EFFORT:
        values = [v for _, v in trend(records, f"effort.{counter.name}")]
        if any(v for v in values if v):
            rows.append(_spark_row(f"effort · {counter.name}", values))
    for label, values in _experiment_trend_series(records):
        rows.append(_spark_row(label, values))
    wall = [v for _, v in trend(records, "wall_s")]
    if any(wall):
        rows.append(_spark_row("wall_s (informational)", wall))
    if not rows:
        return '<p class="muted">(no numeric trends yet)</p>'
    return '<div class="sparks">' + "".join(rows) + "</div>"


def _delta_cell(delta: MetricDelta) -> str:
    """Signed delta with a direction glyph and text label — direction ×
    whether up is good; never color alone."""
    worse = delta.delta > 0
    if delta.kind == "speedup":
        worse = delta.delta < 0
    glyph = "▲" if delta.delta > 0 else "▼"
    if delta.kind == "wall":
        css, word = "delta-info", "informational"
    elif worse:
        css, word = "delta-bad", "regressed"
    else:
        css, word = "delta-good", "improved"
    sign = "+" if delta.delta >= 0 else ""
    return (
        f'<td class="num {css}">{glyph} {sign}{_esc(f"{delta.delta:g}")} '
        f"({word})</td>"
    )


def _regressions(records: list[RunRecord]) -> str:
    if len(records) < 2:
        return (
            '<p class="muted">(fewer than two runs — record another run '
            "to unlock cross-run comparison)</p>"
        )
    comparison = compare_runs(records[-2], records[-1])
    head = (
        f'<p class="subtitle">latest <strong>{_esc(comparison.b.run_id)}'
        f"</strong> vs previous <strong>{_esc(comparison.a.run_id)}"
        "</strong> — effort and II deltas are exact; wall-clock rows "
        "appear only past the noise thresholds.</p>"
    )
    ranked = comparison.ranked()
    if not ranked:
        return head + (
            '<p class="ok-line">✓ no exact deltas: the two runs compiled '
            "identically (wall-clock differences, if any, are below the "
            "noise thresholds).</p>"
        )
    rows = [
        "<table><thead><tr>"
        '<th>#</th><th>kind</th><th>metric</th>'
        '<th class="num">previous</th><th class="num">latest</th>'
        '<th class="num">delta</th>'
        "</tr></thead><tbody>"
    ]
    for rank, delta in enumerate(ranked[:50], start=1):
        rows.append(
            "<tr>"
            f'<td class="num">{rank}</td>'
            f"<td><span class=\"badge\">{_esc(delta.kind)}</span></td>"
            f"<td>{_esc(delta.path)}</td>"
            f'<td class="num">{_esc(f"{delta.a:g}")}</td>'
            f'<td class="num">{_esc(f"{delta.b:g}")}</td>'
            + _delta_cell(delta)
            + "</tr>"
        )
    rows.append("</tbody></table>")
    if len(ranked) > 50:
        rows.append(
            f'<p class="muted">({len(ranked) - 50} further delta(s) not '
            "shown)</p>"
        )
    return head + "".join(rows)


def _experiment_grids(latest: RunRecord) -> str:
    if not latest.experiments:
        return '<p class="muted">(latest run carries no experiment data)</p>'
    out = []
    for experiment in sorted(latest.experiments):
        data = latest.experiments[experiment]
        if not isinstance(data, dict) or not data:
            continue
        out.append(f"<h3>{_esc(experiment)}</h3>")
        first = next(iter(data.values()))
        if isinstance(first, dict):
            columns: list[str] = []
            for row in data.values():
                if isinstance(row, dict):
                    for column in row:
                        if column not in columns:
                            columns.append(column)
            head = "".join(
                f'<th class="num">{_esc(c)}</th>' for c in columns
            )
            body = []
            for name in sorted(data):
                row = data[name]
                if not isinstance(row, dict):
                    continue
                cells = "".join(
                    f'<td class="num">{_esc(_cell(row.get(c)))}</td>'
                    for c in columns
                )
                body.append(f"<tr><td>{_esc(name)}</td>{cells}</tr>")
            out.append(
                "<table><thead><tr><th>benchmark</th>"
                + head
                + "</tr></thead><tbody>"
                + "".join(body)
                + "</tbody></table>"
            )
        else:
            body = "".join(
                f'<tr><td>{_esc(k)}</td><td class="num">'
                f"{_esc(_cell(data[k]))}</td></tr>"
                for k in sorted(data)
            )
            out.append(
                "<table><thead><tr><th>metric</th>"
                '<th class="num">value</th></tr></thead>'
                f"<tbody>{body}</tbody></table>"
            )
    return "".join(out)


def _cell(value: object) -> str:
    if isinstance(value, bool) or value is None:
        return "–" if value is None else str(value)
    if isinstance(value, (int, float)):
        return f"{value:g}" if isinstance(value, int) else f"{value:.3f}"
    if isinstance(value, dict):
        return " / ".join(f"{k} {v}" for k, v in sorted(value.items()))
    return str(value)


def _drilldown(latest: RunRecord) -> str:
    out = []
    badges = []
    if latest.check is not None:
        errors = int(latest.check.get("errors") or 0)
        units = int(latest.check.get("units") or 0)
        badges.append(
            f"check: {'✓ clean' if errors == 0 else f'✗ {errors} error(s)'}"
            f" over {units} unit(s)"
        )
    if latest.oracle is not None:
        badges.append(
            " / ".join(
                f"oracle {k}: {v}" for k, v in sorted(latest.oracle.items())
            )
        )
    if badges:
        out.append(
            "<p>"
            + " ".join(f'<span class="badge">{_esc(b)}</span>' for b in badges)
            + "</p>"
        )
    if latest.notes:
        out.append("<ul>")
        out += [f"<li>{_esc(note)}</li>" for note in latest.notes]
        out.append("</ul>")
    if not latest.loops:
        out.append(
            '<p class="muted">(latest run carries no per-loop rows)</p>'
        )
        return "".join(out)
    for bench in sorted(latest.loops):
        loops = latest.loops[bench]
        variants: list[str] = []
        for row in loops.values():
            if isinstance(row, dict):
                for variant in row:
                    if variant not in variants:
                        variants.append(variant)
        head = "".join(
            f'<th class="num">{_esc(v)} II</th>' for v in variants
        )
        body = []
        for loop_name in sorted(loops):
            row = loops[loop_name]
            cells = []
            for variant in variants:
                metrics = row.get(variant) if isinstance(row, dict) else None
                if isinstance(metrics, dict):
                    ii = metrics.get("ii")
                    title = " ".join(
                        f"{k}={metrics[k]:g}"
                        for k in ("ii", "res_mii", "rec_mii")
                        if isinstance(metrics.get(k), (int, float))
                    )
                    cells.append(
                        f'<td class="num" title="{_esc(title)}">'
                        f"{_esc(_cell(ii))}</td>"
                    )
                else:
                    cells.append('<td class="num">–</td>')
            body.append(
                f"<tr><td>{_esc(loop_name)}</td>" + "".join(cells) + "</tr>"
            )
        out.append(
            f"<details><summary>{_esc(bench)} "
            f"({len(loops)} loop(s))</summary>"
            "<table><thead><tr><th>loop</th>"
            + head
            + "</tr></thead><tbody>"
            + "".join(body)
            + "</tbody></table></details>"
        )
    return "".join(out)


# ----------------------------------------------------------------------
# Document


def render_dashboard(
    ledger: Ledger, *, limit: int | None = None
) -> str:
    """The complete dashboard HTML for a ledger (newest ``limit`` runs)."""
    records = ledger.latest(limit)
    if not records:
        body = (
            "<section class=\"card\"><p class=\"muted\">The ledger at "
            f"<code>{_esc(ledger.root)}</code> holds no runs yet. Record "
            "one with <code>--ledger</code> on the evaluation CLI or "
            "<code>python -m repro.dashboard record</code>.</p></section>"
        )
        return _document(body, subtitle="0 runs")
    latest = records[-1]
    sha = (latest.git_sha or "unknown")[:12]
    subtitle = (
        f"{len(records)} run(s) · latest {_esc(latest.run_id)} "
        f"({_esc(latest.created_at)}, {_esc(latest.label or 'unlabeled')}, "
        f"git {_esc(sha)})"
    )
    sections = [
        f'<section class="card"><h2>Latest run</h2>{_tiles(records)}'
        "</section>",
        f'<section class="card"><h2>Trends across runs</h2>'
        f"{_trends(records)}</section>",
        f'<section class="card"><h2>Top regressions '
        f"(ranked by exact effort delta)</h2>{_regressions(records)}"
        "</section>",
        f'<section class="card"><h2>Latest results by experiment</h2>'
        f"{_experiment_grids(latest)}</section>",
        f'<section class="card"><h2>Per-benchmark drill-down</h2>'
        f"{_drilldown(latest)}</section>",
    ]
    return _document("".join(sections), subtitle=subtitle)


def _document(body: str, *, subtitle: str) -> str:
    return (
        "<!doctype html>\n"
        '<html lang="en">\n<head>\n'
        '<meta charset="utf-8"/>\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1"/>\n'
        f"<title>{_esc(DASHBOARD_TITLE)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_esc(DASHBOARD_TITLE)}</h1>\n"
        f'<p class="subtitle">{subtitle}</p>\n'
        f"{body}\n"
        "<footer>Self-contained artifact: inline SVG only, no scripts, "
        "no network fetches. Effort counters are deterministic — exact "
        "across machines; wall clock is informational.</footer>\n"
        "</body>\n</html>\n"
    )
