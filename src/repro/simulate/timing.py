"""Schedule-level timing.

The paper's evaluation deliberately excludes memory-system effects, so a
loop invocation's cost is pure schedule arithmetic:

* the software pipeline executes ``m = trip // factor`` kernel iterations
  in ``(m + stages - 1) * II`` cycles (prologue fills, epilogue drains);
* residual ``trip % factor`` iterations run through the unpipelined
  cleanup loop at its list-schedule makespan each;
* the preheader and loop setup cost a few cycles once per invocation.

Benchmark-level totals sum loop invocations plus a serial component the
compiler does not touch (the Amdahl term that keeps whole-benchmark
speedups modest, as in Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

# Per-invocation fixed cost: loop-counter and rotating-register setup,
# live-in/live-out moves, and the entry branch.  Paid once per loop, so
# distribution (several loops) and low trip counts both feel it.
LOOP_SETUP_CYCLES = 6


@dataclass(frozen=True)
class UnitTiming:
    """Static timing parameters of one compiled loop unit."""

    ii: int
    stages: int
    factor: int
    cleanup_cycles: int  # per residual iteration; 0 when factor == 1
    preheader_cycles: int

    def invocation_cycles(self, trip_count: int) -> int:
        """Cycles for one invocation of this unit at a given trip count."""
        if trip_count < 0:
            raise ValueError("negative trip count")
        cycles = LOOP_SETUP_CYCLES + self.preheader_cycles
        main_iters = trip_count // self.factor
        if main_iters > 0:
            cycles += (main_iters + self.stages - 1) * self.ii
        cycles += (trip_count % self.factor) * self.cleanup_cycles
        return cycles


def aggregate_cycles(timings: list[UnitTiming], trip_count: int) -> int:
    """Total cycles for one invocation of a (possibly distributed) loop."""
    return sum(t.invocation_cycles(trip_count) for t in timings)
