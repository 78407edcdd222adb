"""Cycle-level execution of modulo schedules.

The timing model (:mod:`repro.simulate.timing`) computes cycle counts by
formula; this module *executes* the software pipeline instead, playing
the Trimaran-simulator role: instance ``j`` of an operation scheduled at
kernel time ``sigma(op)`` issues at absolute cycle ``sigma(op) + j*II``,
values flow between instances exactly as the dependence structure
dictates (same-iteration flow, loop-carried scalars reaching back one
iteration, rotating-register semantics implied by instance indexing), and
loads/stores touch a real memory image.

Running the simulator serves three purposes:

* it validates that a schedule is *executable*, not merely
  constraint-satisfying — every operand must be ready when read;
* it cross-checks the closed-form timing model: the measured makespan of
  ``m`` iterations must be within one II of ``(m + stages - 1) * II``;
* it checks that the schedule's instance order preserves what the loop
  computes.  What each operation computes is the interpreter's own
  definition — :class:`PipelineSimulator` *is* an
  :class:`~repro.interp.interpreter.Interpreter` whose operand reads and
  result writes go to per-instance values — so a memory or reduction
  result that differs from sequential interpretation is an ordering
  fault in the schedule, not a second copy of the semantics.

The prologue and epilogue are not special-cased: they emerge naturally
from instances near ``j = 0`` and ``j = m-1`` issuing with partial
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interp.interpreter import Interpreter, InterpreterError
from repro.interp.memory import MemoryImage
from repro.ir.operations import Operation
from repro.ir.values import Operand, VirtualRegister
from repro.pipeline.scheduler import ModuloSchedule


@dataclass
class PipelineRun:
    """Outcome of executing a software pipeline cycle by cycle."""

    cycles: int
    iterations: int
    issue_slots_used: int
    issue_slot_capacity: int
    carried: dict[str, object] = field(default_factory=dict)
    final_values: dict[VirtualRegister, object] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        if self.issue_slot_capacity == 0:
            return 0.0
        return self.issue_slots_used / self.issue_slot_capacity


class PipelineSimulator(Interpreter):
    """Executes a modulo schedule against a memory image.

    Instance ``j`` of a body operation writes its result under
    ``(uid, j)`` and reads its operands from the instances they come
    from; the preheader runs once, before any instance, through the
    interpreter's environment.

    Only the per-op machinery is shared with :class:`Interpreter`
    (``execute`` and its ``_operand``/``_define`` hooks).  ``run`` is not
    substitutable: it takes an iteration count, not ``(start_j,
    iterations)``, and returns a :class:`PipelineRun`."""

    def __init__(
        self,
        schedule: ModuloSchedule,
        memory: MemoryImage,
        symbols: dict[str, int] | None = None,
        carried_init: dict[str, object] | None = None,
    ):
        super().__init__(schedule.loop, memory, symbols, carried_init)
        self.schedule = schedule
        self.machine = schedule.machine
        self.def_of: dict[VirtualRegister, Operation] = {
            op.dest: op for op in self.loop.body if op.dest is not None
        }
        self.carried_by_entry = {c.entry: c for c in self.loop.carried}
        # (producer uid, iteration) -> value
        self.values: dict[tuple[int, int], object] = {}
        for op in self.loop.preheader:
            self.execute(op, 0)

    # ------------------------------------------------------------------
    # Value resolution across iteration instances.

    def _operand(self, src: Operand, j: int):
        producer = self.def_of.get(src)
        if producer is not None:
            try:
                return self.values[(producer.uid, j)]
            except KeyError:
                raise InterpreterError(
                    f"instance ({producer.dest}, {j}) read before it was "
                    "produced — the schedule is not executable"
                ) from None
        carried = self.carried_by_entry.get(src)
        if carried is not None and j > 0 and carried.exit != carried.entry:
            # The entry of iteration j is the exit of iteration j - 1.
            return self._operand(carried.exit, j - 1)
        # Constants, preheader invariants and initial carried values.
        return super()._operand(src, j)

    def _define(self, op: Operation, j: int, value) -> None:
        if self.def_of.get(op.dest) is op:
            self.values[(op.uid, j)] = value
        else:
            super()._define(op, j, value)  # a preheader invariant

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> PipelineRun:
        """Execute ``iterations`` overlapped iterations of the kernel in
        issue order: the pipelined counterpart of the interpreter's
        sequential ``run(start_j, iterations)``."""
        ii = self.schedule.ii
        times = self.schedule.times
        # All instances in absolute issue order; reads happen before
        # writes within a cycle, which the (cycle, is_store) sort realizes.
        instances = [
            (times[op.uid] + j * ii, op.is_store, idx, j, op)
            for idx, op in enumerate(self.loop.body)
            for j in range(iterations)
        ]
        instances.sort(key=lambda t: (t[0], t[1], t[3], t[2]))

        makespan = 0
        for cycle, _, _, j, op in instances:
            self.execute(op, j)
            latency = self.machine.opcode_info(op).latency
            makespan = max(makespan, cycle + max(1, latency))

        carried = {
            c.entry.name: self._operand(c.entry, iterations)
            for c in self.loop.carried
        }
        final_values = {}
        for op in self.loop.body:
            if op.dest is not None and iterations > 0:
                final_values[op.dest] = self.values[(op.uid, iterations - 1)]

        slot_class = self.machine.resource_class(self.machine.slot_resource)
        used = sum(
            1
            for op in self.loop.body
            if self.machine.opcode_info(op).uses
        ) * iterations
        return PipelineRun(
            cycles=makespan if iterations else 0,
            iterations=iterations,
            issue_slots_used=used,
            issue_slot_capacity=slot_class.count * makespan if makespan else 0,
            carried=carried,
            final_values=final_values,
        )


def simulate_pipeline(
    schedule: ModuloSchedule,
    memory: MemoryImage,
    iterations: int,
    symbols: dict[str, int] | None = None,
    carried_init: dict[str, object] | None = None,
) -> PipelineRun:
    """Execute a modulo schedule for ``iterations`` kernel iterations."""
    sim = PipelineSimulator(schedule, memory, symbols, carried_init)
    return sim.run(iterations)
