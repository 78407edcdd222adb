"""Exact-optimality oracle for the compiler's two heuristic searches.

The Kernighan-Lin partitioner (Figure 2) and the iterative modulo
scheduler (Rau) are heuristics; Table 3's comparisons are therefore
heuristic-vs-heuristic.  This subsystem certifies them against exact
methods at the loop sizes the corpus actually contains:

* :mod:`repro.oracle.exact_partition` — branch-and-bound over
  scalar/vector assignments, sharing the partitioner's bin-packing cost
  model, so the optimum it returns is the true minimum ResMII over every
  partition the heuristic could have chosen;
* :mod:`repro.oracle.exact_schedule` — an exhaustive modulo scheduler
  over kernel rows that certifies whether the achieved II is minimal
  (or exhibits a schedule at a smaller feasible II);
* :mod:`repro.oracle.gap` — the optimality-gap harness wiring both into
  the evaluation flow (``BENCH_oracle_gap.json``, ``--explain`` remarks).

Every search runs under an :class:`OracleBudget` (node count and wall
clock) and degrades to a *sound bound* instead of blocking compilation:
``certified`` means the search finished and the answer is exact;
``bounded``/``timeout`` mean the search was cut off and only the
returned ``[lower_bound, best]`` interval is guaranteed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Certificate statuses shared by both oracles.
CERTIFIED = "certified"
BOUNDED = "bounded"  # node budget exhausted
TIMEOUT = "timeout"  # wall-clock budget exhausted

DEFAULT_MAX_NODES = 200_000
DEFAULT_MAX_SECONDS = 10.0


@dataclass(frozen=True)
class OracleBudget:
    """Search limits for one oracle invocation.

    ``max_nodes`` bounds the number of search-tree nodes expanded;
    ``max_seconds`` bounds wall clock.  Either may be ``None`` for
    unlimited.  Exhausting a budget is not an error: the oracle returns
    with status :data:`BOUNDED` / :data:`TIMEOUT` and a sound interval.
    """

    max_nodes: int | None = DEFAULT_MAX_NODES
    max_seconds: float | None = DEFAULT_MAX_SECONDS


class BudgetMeter:
    """Mutable consumption state for one search under a budget."""

    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.nodes = 0
        self.started = time.monotonic()
        self.exhausted_by: str | None = None

    def charge(self) -> bool:
        """Account one search node; False once the budget is exhausted."""
        if self.exhausted_by is not None:
            return False
        self.nodes += 1
        limit = self.budget.max_nodes
        if limit is not None and self.nodes > limit:
            self.exhausted_by = "nodes"
            return False
        seconds = self.budget.max_seconds
        if seconds is not None and time.monotonic() - self.started > seconds:
            self.exhausted_by = "time"
            return False
        return True

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def status(self) -> str:
        """The certificate status this meter's outcome implies."""
        if self.exhausted_by == "time":
            return TIMEOUT
        if self.exhausted_by == "nodes":
            return BOUNDED
        return CERTIFIED


__all__ = [
    "BOUNDED",
    "CERTIFIED",
    "TIMEOUT",
    "BudgetMeter",
    "OracleBudget",
]
