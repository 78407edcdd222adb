"""Deterministic hierarchical profiler and perf-attribution tools.

Layered on :mod:`repro.observability`: the recorder's span tree already
carries wall time per phase, and (since trace schema v3) every effort
counter is attributed to the innermost open span.  This package turns
one recording session into a proper call-tree profile and gives it the
standard profiler surfaces:

* :class:`Profile` / :class:`PhaseProfile` — phases merged by path, with
  calls, total/self wall time, and *deterministic effort counters*
  (KL pack steps, scheduler attempts, Bellman-Ford relaxations, checker
  obligations) attributed to the phase that spent them;
* text tree, collapsed-stack (flamegraph.pl) and speedscope-JSON
  exporters (:mod:`repro.profiling.export`);
* sweep-scale progress telemetry for the evaluation harness
  (:mod:`repro.profiling.progress`).

CLI: ``python -m repro.profiling {show,export,check}``, and
``--profile[=PATH]`` on both the compiler and evaluation CLIs.  With
``--ledger`` as well, the run's ledger record carries its profile, and
``python -m repro.dashboard compare`` lines up two such records by phase
path: that is the cross-run diff.  Its per-commit timeline is
``python -m repro.dashboard trend``.
"""

from repro.profiling.export import (
    emit_profile,
    render_tree,
    to_collapsed,
    to_speedscope,
)
from repro.profiling.profile import (
    PROFILE_SCHEMA_VERSION,
    PhaseProfile,
    Profile,
    check_profile,
    load_profile,
    write_profile,
)
from repro.profiling.progress import ProgressMonitor

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PhaseProfile",
    "Profile",
    "ProgressMonitor",
    "check_profile",
    "emit_profile",
    "load_profile",
    "render_tree",
    "to_collapsed",
    "to_speedscope",
    "write_profile",
]
