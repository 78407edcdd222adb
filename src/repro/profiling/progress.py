"""Sweep-scale progress telemetry for long evaluation runs.

A :class:`ProgressMonitor` receives one :meth:`~ProgressMonitor.tick`
per compiled loop (cache hits included) and periodically emits a
heartbeat — a human line to a stream and/or one JSON object per line
appended to a file
  (pass ``stream=sys.stderr`` and/or ``json_path=...``) — carrying:

* loops done / total and percent complete;
* an ETA from a *decaying rate estimate* (exponential moving average of
  per-loop wall time, so the estimate tracks the current compile mix,
  not the run-wide mean);
* compile-cache hit rate so far;
* per-strategy deterministic effort so far (KL pack steps, scheduler
  attempts, ...);
* the stragglers: the slowest loops by compile wall time.

The monitor is fan-out-friendly: under ``--jobs N`` the evaluation
harness ticks as worker results stream back, so heartbeats reflect pool
throughput.  Time is injectable (``clock=``) for deterministic tests.
"""

from __future__ import annotations

import heapq
import json
import time
from typing import Callable, TextIO

#: EMA smoothing: weight of the newest per-loop duration.
DEFAULT_DECAY = 0.2

DEFAULT_INTERVAL_S = 2.0
DEFAULT_STRAGGLERS = 3


class ProgressMonitor:
    """Heartbeat emitter for a sweep of loop compilations."""

    def __init__(
        self,
        total: int = 0,
        *,
        stream: TextIO | None = None,
        json_path: str | None = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        decay: float = DEFAULT_DECAY,
        stragglers: int = DEFAULT_STRAGGLERS,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.total = total
        self.done = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.effort_by_strategy: dict[str, dict[str, int]] = {}
        self.stream = stream
        self.json_path = json_path
        self.interval_s = interval_s
        self.decay = decay
        self.n_stragglers = stragglers
        self._straggler_heap: list[tuple[float, str]] = []
        self._clock = clock
        self._started = clock()
        self._last_tick = self._started
        self._last_emit = self._started
        self._ema_s: float | None = None
        self.heartbeats = 0

    # ------------------------------------------------------------------

    def add_total(self, n: int) -> None:
        """Grow the expected loop count (batches announce themselves)."""
        self.total += n

    def tick(
        self,
        loop: str,
        strategy: str = "",
        *,
        wall_ms: float = 0.0,
        cache_hit: bool = False,
        effort: dict[str, int] | None = None,
    ) -> None:
        """Record one finished loop compilation and maybe heartbeat."""
        now = self._clock()
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        dt = now - self._last_tick
        self._last_tick = now
        if self._ema_s is None:
            self._ema_s = dt
        else:
            self._ema_s = self.decay * dt + (1.0 - self.decay) * self._ema_s
        if effort:
            bucket = self.effort_by_strategy.setdefault(strategy or "?", {})
            for name, value in effort.items():
                bucket[name] = bucket.get(name, 0) + int(value)
        entry = (float(wall_ms), f"{loop}/{strategy}" if strategy else loop)
        heapq.heappush(self._straggler_heap, entry)
        if len(self._straggler_heap) > self.n_stragglers:
            heapq.heappop(self._straggler_heap)
        self.maybe_heartbeat(now)

    # ------------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    def eta_s(self) -> float | None:
        """Estimated seconds to finish, from the decaying rate estimate."""
        if self._ema_s is None or self.total <= self.done:
            return None
        return (self.total - self.done) * self._ema_s

    def rate_per_s(self) -> float | None:
        if self._ema_s is None or self._ema_s <= 0:
            return None
        return 1.0 / self._ema_s

    def stragglers(self) -> list[tuple[str, float]]:
        """Slowest loops so far: (label, wall_ms), slowest first."""
        return [
            (label, wall_ms)
            for wall_ms, label in sorted(self._straggler_heap, reverse=True)
        ]

    def snapshot(self) -> dict[str, object]:
        """The machine-readable heartbeat payload."""
        eta = self.eta_s()
        rate = self.rate_per_s()
        return {
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(self._clock() - self._started, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
            "rate_per_s": round(rate, 3) if rate is not None else None,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "effort_by_strategy": {
                label: dict(sorted(counters.items()))
                for label, counters in sorted(
                    self.effort_by_strategy.items()
                )
            },
            "stragglers": [
                {"loop": label, "wall_ms": round(wall_ms, 3)}
                for label, wall_ms in self.stragglers()
            ],
        }

    def render_line(self) -> str:
        parts = [f"[progress] {self.done}/{self.total or '?'} loops"]
        if self.total:
            parts[0] += f" ({100.0 * self.done / self.total:.1f}%)"
        rate = self.rate_per_s()
        if rate is not None:
            parts.append(f"{rate:.1f}/s")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache {100.0 * self.cache_hit_rate:.0f}% hit")
        worst = self.stragglers()
        if worst and worst[0][1] > 0:
            label, wall_ms = worst[0]
            parts.append(f"slowest {label} {wall_ms:.0f}ms")
        return ", ".join(parts)

    # ------------------------------------------------------------------

    def maybe_heartbeat(self, now: float | None = None) -> bool:
        """Emit a heartbeat if the reporting interval has elapsed."""
        now = self._clock() if now is None else now
        if now - self._last_emit < self.interval_s:
            return False
        self._emit(now)
        return True

    def finish(self) -> None:
        """Emit one final heartbeat summarizing the whole sweep."""
        self._emit(self._clock())

    def _emit(self, now: float) -> None:
        self._last_emit = now
        self.heartbeats += 1
        if self.stream is not None:
            print(self.render_line(), file=self.stream, flush=True)
        if self.json_path:
            with open(self.json_path, "a", encoding="utf-8") as f:
                json.dump(self.snapshot(), f, sort_keys=True)
                f.write("\n")
