"""Rotating-register allocation for modulo-scheduled kernels.

A value defined in stage ``s`` and consumed in stage ``s+k`` is live
across ``k`` kernel copies, so it needs ``k+1`` rotating registers (the
Trimaran/Itanium scheme; modulo variable expansion achieves the same
effect by unrolling).  We compute, per register file, the most copies
simultaneously live at any kernel cycle (MaxLive) in closed form, assign
rotating indices, and report whether the Table 1 file capacities suffice.
Allocation failure sends the loop back to the scheduler at a higher II.
The per-cycle count the closed form replaced is the executable
specification in ``tests/regalloc_spec.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.dependence.graph import DependenceGraph, DepKind, Via
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import VirtualRegister

if TYPE_CHECKING:  # avoid a circular import with repro.pipeline
    from repro.pipeline.scheduler import ModuloSchedule


def register_file_of(reg: VirtualRegister) -> str:
    """Which architected file holds this value: int / fp / vint / vfp."""
    ty = reg.type
    if isinstance(ty, VectorType):
        return "vint" if ty.element.is_integer else "vfp"
    if ty is ScalarType.PRED:
        return "pred"
    return "int" if ty.is_integer else "fp"


_CAPACITY_ATTR = {
    "int": "scalar_int",
    "fp": "scalar_fp",
    "vint": "vector_int",
    "vfp": "vector_fp",
    "pred": "predicate",
}


@dataclass
class FilePressure:
    file: str
    max_live: int
    capacity: int

    @property
    def fits(self) -> bool:
        return self.max_live <= self.capacity


@dataclass
class AllocationResult:
    pressures: dict[str, FilePressure]
    rotating_indices: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(p.fits for p in self.pressures.values())

    def pressure(self, file: str) -> int:
        p = self.pressures.get(file)
        return p.max_live if p else 0


def _max_live(
    lifetimes: dict[VirtualRegister, tuple[int, int]], ii: int
) -> dict[str, int]:
    """Per register file, the most rotating copies live at any one
    kernel cycle.

    A value live over ``[start, end)`` holds ``(end - start) // ii``
    copies at every kernel cycle, plus one more on the
    ``(end - start) % ii`` consecutive cycles from ``start mod ii``
    (wrapping): each absolute cycle of the lifetime lands on one kernel
    cycle.  Those extra copies go into a per-file difference array, so
    the count is O(values + II) rather than O(values * II).
    """
    base: dict[str, int] = {}
    extra: dict[str, list[int]] = {}
    for reg, (start, end) in lifetimes.items():
        length = end - start
        if length <= 0:
            continue
        file = register_file_of(reg)
        full, rest = divmod(length, ii)
        base[file] = base.get(file, 0) + full
        diff = extra.get(file)
        if diff is None:
            diff = extra[file] = [0] * ii
        if rest:
            first = start % ii
            last = first + rest  # exclusive, and past ii when it wraps
            diff[first] += 1
            if last < ii:
                diff[last] -= 1
            elif last > ii:
                diff[0] += 1
                diff[last - ii] -= 1
    max_live: dict[str, int] = {}
    for file, diff in extra.items():
        running = peak = 0
        for step in diff:
            running += step
            if running > peak:
                peak = running
        max_live[file] = base[file] + peak
    return max_live


def allocate_kernel(
    schedule: ModuloSchedule,
    graph: DependenceGraph,
) -> AllocationResult:
    """MaxLive analysis and rotating assignment for one kernel."""
    from repro.observability.recorder import active_recorder, maybe_span

    rec = active_recorder()
    with maybe_span(rec, "regalloc", loop=schedule.loop.name, ii=schedule.ii):
        result = _allocate_kernel(schedule, graph)
        if rec is not None:
            rec.count("regalloc.calls")
            if not result.ok:
                rec.count("regalloc.failures")
        return result


def value_lifetimes(
    schedule: ModuloSchedule, graph: DependenceGraph
) -> dict[VirtualRegister, tuple[int, int]]:
    """Absolute [def, last-use) intervals for every defined value: from
    issue to the latest consumer read (offset by II per carried
    distance); values without consumers live through their own
    latency."""
    machine = schedule.machine
    ii = schedule.ii
    times = schedule.times
    lifetimes: dict[VirtualRegister, tuple[int, int]] = {}
    for op in schedule.loop.body:
        if op.dest is None:
            continue
        start = times[op.uid]
        end = start + max(1, machine.opcode_info(op).latency)
        for edge in graph.successors(op.uid):
            if edge.kind is not DepKind.FLOW or edge.via not in (
                Via.REGISTER,
                Via.CARRIED,
            ):
                continue
            end = max(end, times[edge.dst] + ii * edge.distance + 1)
        lifetimes[op.dest] = (start, end)
    return lifetimes


def kernel_lifetimes(
    schedule: ModuloSchedule, graph: DependenceGraph
) -> dict[VirtualRegister, tuple[int, int]]:
    """The lifetimes the allocator counts: :func:`value_lifetimes`, with
    live-out values rounded up to a full extra stage — they persist past
    the loop, and the epilogue must still read them."""
    ii = schedule.ii
    lifetimes = value_lifetimes(schedule, graph)
    for reg in schedule.loop.live_out:
        if reg in lifetimes:
            start, end = lifetimes[reg]
            lifetimes[reg] = (start, max(end, start + ii + 1))
    return lifetimes


def _allocate_kernel(
    schedule: ModuloSchedule,
    graph: DependenceGraph,
) -> AllocationResult:
    loop = schedule.loop
    machine = schedule.machine
    lifetimes = kernel_lifetimes(schedule, graph)
    max_live = _max_live(lifetimes, schedule.ii)

    # Persistent values: carried entries without a body definition and
    # loop invariants defined in the preheader each pin one register.
    body_defs = {op.dest for op in loop.body if op.dest is not None}
    for c in loop.carried:
        if c.exit == c.entry or c.exit not in body_defs:
            file = register_file_of(c.entry)
            max_live[file] = max_live.get(file, 0) + 1
    for op in loop.preheader:
        if op.dest is not None:
            file = register_file_of(op.dest)
            max_live[file] = max_live.get(file, 0) + 1

    rf = machine.register_files
    pressures = {
        file: FilePressure(file, count, getattr(rf, _CAPACITY_ATTR[file]))
        for file, count in sorted(max_live.items())
    }

    # Rotating assignment: values receive consecutive base indices within
    # their file; the hardware (or modulo variable expansion) advances the
    # rotating base by one register per kernel iteration.
    rotating: dict[str, int] = {}
    counters: dict[str, int] = {}
    for reg in sorted(lifetimes, key=lambda r: r.name):
        file = register_file_of(reg)
        rotating[reg.name] = counters.get(file, 0)
        counters[file] = counters.get(file, 0) + 1

    return AllocationResult(pressures=pressures, rotating_indices=rotating)
