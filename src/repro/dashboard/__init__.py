"""Cross-run observability: ledger queries and the HTML dashboard.

Built on :mod:`repro.ledger`.  The query layer answers "what changed
between runs" with exact effort and II deltas and noise-gated wall
clock, per compile phase too when both runs carry a profile; the
renderer turns the run history into a single self-contained HTML file.

CLI: ``python -m repro.dashboard {record,list,compare,trend,outliers,
render,merge}``.
"""

from repro.dashboard.queries import (
    EXACT_EPSILON,
    MetricDelta,
    Outlier,
    RunComparison,
    compare_runs,
    metric_value,
    outliers,
    render_comparison,
    render_outliers,
    render_trend,
    spark_line,
    summarize,
    trend,
)
from repro.dashboard.render import render_dashboard, svg_sparkline

__all__ = [
    "EXACT_EPSILON",
    "MetricDelta",
    "Outlier",
    "RunComparison",
    "compare_runs",
    "metric_value",
    "outliers",
    "render_comparison",
    "render_outliers",
    "render_trend",
    "render_dashboard",
    "spark_line",
    "summarize",
    "svg_sparkline",
    "trend",
]
