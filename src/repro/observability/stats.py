"""Named counters and value distributions (the ``-stats`` half).

Counters are plain monotonically increasing integers keyed by dotted
names (``kl.moves_evaluated``, ``sched.ii_attempts``).  Distributions
remember count / sum / min / max of every observed value — enough for a
stats table without retaining the samples.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


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


@dataclass
class Distribution:
    """Streaming summary of observed values."""

    n: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
        }


class StatRegistry:
    """Counters and distributions for one recording session."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.distributions: dict[str, Distribution] = {}

    def add(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        dist = self.distributions.get(name)
        if dist is None:
            dist = self.distributions[name] = Distribution()
        dist.observe(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def reset(self) -> None:
        self.counters.clear()
        self.distributions.clear()

    def to_dict(self) -> dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "distributions": {
                name: dist.to_dict()
                for name, dist in sorted(self.distributions.items())
            },
        }
