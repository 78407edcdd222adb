"""End-to-end compilation driver (the paper's Figure 3 flow).

``compile_loop`` takes a source loop and a strategy and runs dependence
analysis, (selective) vectorization, loop transformation, modulo
scheduling, and register allocation, producing a :class:`CompiledLoop`
that can report timing for any trip count and execute functionally for
semantics verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dependence.analysis import analyze_loop
from repro.interp.interpreter import run_loop
from repro.interp.memory import MemoryImage
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.observability.recorder import active_recorder, maybe_span
from repro.pipeline.list_schedule import list_schedule_length
from repro.pipeline.scheduler import ModuloSchedule, modulo_schedule
from repro.regalloc.allocator import AllocationResult, allocate_kernel
from repro.simulate.timing import UnitTiming, aggregate_cycles
from repro.vectorize.communication import Side
from repro.vectorize.full import full_assignment
from repro.vectorize.partition import (
    PartitionConfig,
    PartitionResult,
    partition_operations,
)
from repro.vectorize.traditional import distribute_loop
from repro.vectorize.transform import TransformResult, transform_loop
from repro.compiler.strategies import Strategy

MAX_ALLOCATION_RETRIES = 3


class RegisterAllocationError(RuntimeError):
    """Register allocation failed after every retry and no spill could
    relieve the pressure."""


@dataclass
class CompiledUnit:
    """One scheduled loop (a distributed piece, or the whole loop)."""

    transform: TransformResult
    schedule: ModuloSchedule
    allocation: AllocationResult
    timing: UnitTiming

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def factor(self) -> int:
        return self.transform.factor


@dataclass
class ExecutionResult:
    """Functional outcome of one compiled-loop invocation."""

    live_outs: dict[str, object] = field(default_factory=dict)
    carried: dict[str, object] = field(default_factory=dict)


@dataclass
class CompiledLoop:
    """A loop compiled under one strategy."""

    source: Loop
    machine: MachineDescription
    strategy: Strategy
    units: list[CompiledUnit]
    partition: PartitionResult | None = None
    # Translation-validation telemetry (populated by run_translation_checks).
    check_ms: float = 0.0
    check_findings: int = 0

    def invocation_cycles(self, trip_count: int) -> int:
        return aggregate_cycles([u.timing for u in self.units], trip_count)

    def ii_per_iteration(self) -> float:
        """Steady-state initiation interval per original iteration,
        aggregated across distributed loops."""
        return sum(u.ii / u.factor for u in self.units)

    def res_mii_per_iteration(self) -> float:
        return sum(u.schedule.res_mii / u.factor for u in self.units)

    def rec_mii_per_iteration(self) -> float:
        return sum(u.schedule.rec_mii / u.factor for u in self.units)

    @property
    def is_resource_limited(self) -> bool:
        """True when no unit's II is pinned by a recurrence — the class of
        loops Table 3 reports on."""
        return all(u.schedule.res_mii >= u.schedule.rec_mii for u in self.units)

    @property
    def n_vector_ops(self) -> int:
        return sum(u.transform.n_vector_ops for u in self.units)

    @property
    def n_transfers(self) -> int:
        return sum(u.transform.n_transfers for u in self.units)

    # ------------------------------------------------------------------

    def execute(
        self,
        memory: MemoryImage,
        trip_count: int,
        symbols: dict[str, int] | None = None,
    ) -> ExecutionResult:
        """Run the compiled loop functionally (distribution order for
        traditional vectorization: each unit covers all iterations before
        the next starts)."""
        result = ExecutionResult()
        for c in self.source.carried:
            result.carried[c.entry.name] = c.init
        for unit in self.units:
            tr = unit.transform
            factor = tr.factor
            main_iters = trip_count // factor
            residual = trip_count % factor

            def carried_init_for(loop: Loop) -> dict[str, object]:
                names = {c.entry.name for c in loop.carried}
                return {
                    name: value
                    for name, value in result.carried.items()
                    if name in names
                }

            if main_iters > 0:
                pre_carried = dict(result.carried)
                run = run_loop(
                    tr.loop,
                    memory,
                    0,
                    main_iters,
                    symbols,
                    carried_init=carried_init_for(tr.loop),
                )
                result.carried.update(run.carried)
                # Fold vectorized reductions: combine the partial-sum lanes
                # with the value the scalar held before the loop.
                for entry_name, (kind, acc_name) in tr.reduction_combines.items():
                    from repro.vectorize.reduction import combine_lanes

                    lanes = run.carried[acc_name]
                    init = pre_carried.get(entry_name)
                    result.carried[entry_name] = combine_lanes(kind, lanes, init)
                    result.carried.pop(acc_name, None)
                for name, spec in tr.liveout_map.items():
                    if spec.combine is not None:
                        result.live_outs[name] = result.carried[spec.combine_entry]
                    else:
                        result.live_outs[name] = run.value_of(
                            spec.register, spec.lane
                        )
            if residual > 0:
                cleanup = tr.cleanup if factor > 1 else tr.loop
                cleanup_map = (
                    tr.cleanup_liveout_map if factor > 1 else tr.liveout_map
                )
                assert cleanup is not None and cleanup_map is not None
                run = run_loop(
                    cleanup,
                    memory,
                    main_iters * factor,
                    residual,
                    symbols,
                    carried_init=carried_init_for(cleanup),
                )
                result.carried.update(run.carried)
                for name, spec in cleanup_map.items():
                    result.live_outs[name] = run.value_of(spec.register, spec.lane)
        return result


# ----------------------------------------------------------------------


def _overflowing_files(allocation: AllocationResult) -> dict[str, list[int]]:
    return {
        p.file: [p.max_live, p.capacity]
        for p in allocation.pressures.values()
        if not p.fits
    }


def _compile_unit(
    transform: TransformResult,
    machine: MachineDescription,
) -> CompiledUnit:
    rec = active_recorder()
    with maybe_span(
        rec, "compile_unit", loop=transform.loop.name, factor=transform.factor
    ):
        with maybe_span(rec, "dependence", loop=transform.loop.name):
            dep = analyze_loop(transform.loop, machine.vector_length)
        min_ii: int | None = None
        for attempt in range(MAX_ALLOCATION_RETRIES + 1):
            schedule = modulo_schedule(
                transform.loop, dep.graph, machine, min_ii=min_ii
            )
            allocation = allocate_kernel(schedule, dep.graph)
            if allocation.ok or attempt == MAX_ALLOCATION_RETRIES:
                break
            # Register pressure exceeded a file: retry at a longer II, which
            # shortens cross-stage lifetimes.
            min_ii = schedule.ii + 1
            if rec is not None:
                rec.count("regalloc.retries")
                rec.remark(
                    "regalloc",
                    transform.loop.name,
                    "retry",
                    f"register pressure over capacity at II={schedule.ii}; "
                    f"retrying at II>={min_ii}",
                    attempt=attempt + 1,
                    ii=schedule.ii,
                    next_min_ii=min_ii,
                    overflow=_overflowing_files(allocation),
                )

        if not allocation.ok:
            # Last resort: spill the longest-lived values to memory and
            # recompile.  The spill traffic competes for the load/store units,
            # so the schedule is redone from scratch.
            from dataclasses import replace as dc_replace

            from repro.regalloc.spill import spill_for_pressure

            with maybe_span(rec, "spill", loop=transform.loop.name):
                spilled = spill_for_pressure(
                    transform.loop, schedule, dep.graph, allocation
                )
            if spilled is None:
                raise RegisterAllocationError(
                    f"register allocation for loop {transform.loop.name!r} "
                    f"failed at II={schedule.ii} after "
                    f"{MAX_ALLOCATION_RETRIES} II retries, and no value is "
                    f"spillable; over-capacity files (max_live/capacity): "
                    f"{_overflowing_files(allocation)}"
                )
            if rec is not None:
                rec.count("regalloc.spill_rounds")
                rec.remark(
                    "regalloc",
                    transform.loop.name,
                    "spill",
                    f"register pressure still over capacity at II={schedule.ii} "
                    f"after {MAX_ALLOCATION_RETRIES} retries; spilling to memory",
                    ii=schedule.ii,
                    overflow=_overflowing_files(allocation),
                )
            transform = dc_replace(transform, loop=spilled)
            dep = analyze_loop(spilled, machine.vector_length)
            schedule = modulo_schedule(spilled, dep.graph, machine)
            allocation = allocate_kernel(schedule, dep.graph)

        cleanup_cycles = 0
        if transform.cleanup is not None:
            with maybe_span(rec, "cleanup_schedule", loop=transform.loop.name):
                cdep = analyze_loop(transform.cleanup, machine.vector_length)
                cleanup_cycles = list_schedule_length(
                    transform.cleanup, cdep.graph, machine
                )

        timing = UnitTiming(
            ii=schedule.ii,
            stages=schedule.stage_count,
            factor=transform.factor,
            cleanup_cycles=cleanup_cycles,
            preheader_cycles=len(transform.loop.preheader),
        )
        return CompiledUnit(
            transform=transform,
            schedule=schedule,
            allocation=allocation,
            timing=timing,
        )


def check_env_enabled() -> bool:
    """Whether ``REPRO_CHECK`` requests in-process translation validation."""
    import os

    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def run_translation_checks(
    compiled: CompiledLoop, *, raise_on_error: bool = False
):
    """Run the translation-validation checkers over ``compiled``.

    Observe-only with respect to compilation state: the checkers read
    the units, they never mutate them.  Records wall-time and finding
    count on the compiled loop for telemetry, and optionally raises
    :class:`~repro.check.TranslationValidationError` on any ERROR.
    """
    import time

    from repro.check import TranslationValidationError, run_all_checks

    start = time.perf_counter()
    report = run_all_checks(compiled)
    compiled.check_ms = (time.perf_counter() - start) * 1000.0
    compiled.check_findings = len(report.findings)
    if raise_on_error and not report.ok:
        raise TranslationValidationError(report)
    return report


def compile_loop(
    loop: Loop,
    machine: MachineDescription,
    strategy: Strategy,
    partition_config: PartitionConfig | None = None,
    baseline_unroll: int | None = None,
    optimize: bool = False,
    allow_reassociation: bool = False,
) -> CompiledLoop:
    """Compile ``loop`` under ``strategy`` for ``machine``; with
    ``REPRO_CHECK`` set, validate the result in-process and raise on
    any ERROR finding.  See :func:`_compile_loop` for the parameters."""
    compiled = _compile_loop(
        loop,
        machine,
        strategy,
        partition_config=partition_config,
        baseline_unroll=baseline_unroll,
        optimize=optimize,
        allow_reassociation=allow_reassociation,
    )
    if check_env_enabled():
        run_translation_checks(compiled, raise_on_error=True)
    return compiled


def _compile_loop(
    loop: Loop,
    machine: MachineDescription,
    strategy: Strategy,
    partition_config: PartitionConfig | None = None,
    baseline_unroll: int | None = None,
    optimize: bool = False,
    allow_reassociation: bool = False,
) -> CompiledLoop:
    """Compile ``loop`` under ``strategy`` for ``machine``.

    ``optimize`` runs the standard dataflow pipeline (constant/copy
    propagation, CSE, LICM, DCE) before vectorization, as the paper does;
    the workload kernels are already in optimized form, so it defaults
    off there.

    ``allow_reassociation`` enables the Section 6 extension: floating
    point reductions may be computed as per-lane partial accumulations
    (reordering the operations), letting otherwise serial reduction loops
    vectorize fully.
    """
    rec = active_recorder()
    with maybe_span(
        rec,
        "compile_loop",
        loop=loop.name,
        strategy=strategy.value,
        machine=machine.name,
    ):
        if optimize:
            from repro.opt.pass_manager import optimize_loop

            with maybe_span(rec, "optimize", loop=loop.name):
                loop = optimize_loop(loop)
        vl = machine.vector_length
        with maybe_span(rec, "dependence", loop=loop.name):
            dep = analyze_loop(loop, vl)

        if strategy is Strategy.BASELINE:
            factor = baseline_unroll if baseline_unroll is not None else vl
            assignment = {op.uid: Side.SCALAR for op in loop.body}
            with maybe_span(rec, "transform", loop=loop.name):
                tr = transform_loop(
                    dep, machine, assignment, factor, suffix=".base"
                )
            return CompiledLoop(
                loop, machine, strategy, [_compile_unit(tr, machine)]
            )

        if strategy is Strategy.FULL:
            assignment = full_assignment(dep)
            factor = vl
            with maybe_span(rec, "transform", loop=loop.name):
                tr = transform_loop(
                    dep, machine, assignment, factor, suffix=".full"
                )
            return CompiledLoop(
                loop, machine, strategy, [_compile_unit(tr, machine)]
            )

        if strategy is Strategy.SELECTIVE:
            if allow_reassociation:
                from repro.vectorize.reduction import vectorize_reduction_loop

                tr_red = vectorize_reduction_loop(dep, machine)
                if tr_red is not None:
                    return CompiledLoop(
                        loop, machine, strategy, [_compile_unit(tr_red, machine)]
                    )
            partition = partition_operations(dep, machine, partition_config)
            with maybe_span(rec, "transform", loop=loop.name):
                tr = transform_loop(
                    dep, machine, partition.assignment, vl, suffix=".sel"
                )
            return CompiledLoop(
                loop,
                machine,
                strategy,
                [_compile_unit(tr, machine)],
                partition=partition,
            )

        assert strategy is Strategy.TRADITIONAL
        units: list[CompiledUnit] = []
        for dist in distribute_loop(dep, machine):
            sub_dep = analyze_loop(dist.loop, vl)
            if dist.vector:
                assignment = {
                    op.uid: (
                        Side.VECTOR
                        if sub_dep.is_vectorizable(op)
                        else Side.SCALAR
                    )
                    for op in dist.loop.body
                }
                factor = vl
            else:
                assignment = {op.uid: Side.SCALAR for op in dist.loop.body}
                factor = 1
            with maybe_span(rec, "transform", loop=dist.loop.name):
                tr = transform_loop(
                    sub_dep, machine, assignment, factor, suffix=".trad"
                )
            units.append(_compile_unit(tr, machine))
        return CompiledLoop(loop, machine, strategy, units)


# ----------------------------------------------------------------------
# Strategy comparison (the --explain entry point)


def compare_strategies(
    loop: Loop,
    machine: MachineDescription,
    strategies: tuple[Strategy, ...] | None = None,
    optimize: bool = False,
) -> dict[str, CompiledLoop]:
    """Compile ``loop`` under every strategy and remark on the outcome.

    Returns ``{strategy value: CompiledLoop}``.  With a recorder active,
    emits one ``strategy`` remark per strategy (its steady-state cost and
    what it spent to get there) plus a verdict remark explaining why the
    winner won — the Figure 1 / Table 2 argument, per loop.
    """
    from repro.compiler.strategies import ALL_STRATEGIES

    strategies = strategies or ALL_STRATEGIES
    compiled = {
        s.value: compile_loop(loop, machine, s, optimize=optimize)
        for s in strategies
    }
    rec = active_recorder()
    if rec is not None:
        _emit_strategy_remarks(rec, loop, compiled)
    return compiled


def _strategy_shape(c: CompiledLoop) -> str:
    """One-phrase structural summary of a compiled strategy."""
    parts = [f"{len(c.units)} loop(s)"]
    parts.append(f"{c.n_vector_ops} vector op(s)")
    if c.n_transfers:
        parts.append(f"{c.n_transfers} transfer(s)")
    parts.append(
        "resource-limited" if c.is_resource_limited else "recurrence-limited"
    )
    return ", ".join(parts)


def _emit_strategy_remarks(
    rec, loop: Loop, compiled: dict[str, CompiledLoop]
) -> None:
    per_iter = {label: c.ii_per_iteration() for label, c in compiled.items()}
    best = min(per_iter, key=per_iter.get)
    for label, c in compiled.items():
        rec.remark(
            "driver",
            loop.name,
            "strategy-cost",
            f"{label}: II/iteration {per_iter[label]:.2f} "
            f"({_strategy_shape(c)})",
            strategy=label,
            ii_per_iteration=per_iter[label],
            res_mii_per_iteration=c.res_mii_per_iteration(),
            rec_mii_per_iteration=c.rec_mii_per_iteration(),
            units=len(c.units),
            vector_ops=c.n_vector_ops,
            transfers=c.n_transfers,
            resource_limited=c.is_resource_limited,
        )
    if "selective" not in per_iter:
        return
    sel = per_iter["selective"]
    rivals = {k: v for k, v in per_iter.items() if k != "selective"}
    if not rivals:
        return
    best_rival = min(rivals, key=rivals.get)
    margin = rivals[best_rival] - sel
    if margin > 1e-9:
        verdict, vs = "selective-won", f"beats {best_rival}"
    elif margin < -1e-9:
        verdict, vs = "selective-lost", f"loses to {best_rival}"
    else:
        verdict, vs = "selective-tied", f"ties {best_rival}"
    explanation = []
    if "full" in compiled:
        full = compiled["full"]
        selc = compiled["selective"]
        kept_scalar = full.n_vector_ops - selc.n_vector_ops
        if kept_scalar > 0:
            explanation.append(
                f"kept {kept_scalar} op(s) scalar "
                f"(saving {max(0, full.n_transfers - selc.n_transfers)} "
                "transfer(s))"
            )
    if "traditional" in compiled and len(compiled["traditional"].units) > 1:
        explanation.append(
            "avoided distributing the loop into "
            f"{len(compiled['traditional'].units)} pieces"
        )
    rec.remark(
        "driver",
        loop.name,
        verdict,
        f"selective ({sel:.2f} II/iteration) {vs} "
        f"({rivals[best_rival]:.2f})"
        + (": " + "; ".join(explanation) if explanation else ""),
        selective=sel,
        best_rival=best_rival,
        best_rival_ii=rivals[best_rival],
        winner=best,
    )
