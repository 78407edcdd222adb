"""Named counters (the ``-stats`` half).

Counters are plain monotonically increasing integers keyed by dotted
names (``kl.moves_evaluated``, ``sched.ii_attempts``).
"""

from __future__ import annotations

from collections.abc import Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample: the value at
    rank ``round(fraction * (n - 1))``, or 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


class StatRegistry:
    """The counters of one recording session."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def add(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def reset(self) -> None:
        self.counters.clear()
