"""Tests for the cycle-level software-pipeline simulator."""

import pytest

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.interp.interpreter import InterpreterError, run_loop
from repro.interp.memory import memory_for_loop
from repro.machine.configs import figure1_machine, machine_by_name, paper_machine
from repro.pipeline.kernel import (
    kernel_listing,
    pipeline_listing,
    prologue_epilogue_cycles,
)
from repro.simulate.pipeline_sim import simulate_pipeline
from repro.workloads.generator import GENERATORS, generate
from repro.workloads.kernels import ALL_KERNELS


def compiled_unit(loop, machine, strategy):
    compiled = compile_loop(loop, machine, strategy)
    return compiled.units[0]


class TestExecution:
    @pytest.mark.parametrize(
        "kernel", ["dot_product", "saxpy", "stencil3", "relaxation", "sum_and_scale"]
    )
    @pytest.mark.parametrize("strategy", [Strategy.BASELINE, Strategy.SELECTIVE],
                             ids=lambda s: s.value)
    def test_pipeline_matches_interpreter(self, kernel, strategy):
        """Executing the modulo schedule cycle by cycle produces exactly
        the memory image the sequential interpreter produces."""
        machine = paper_machine()
        loop = ALL_KERNELS[kernel]()
        unit = compiled_unit(loop, machine, strategy)
        factor = unit.transform.factor
        trip = 24  # multiple of the factor: no cleanup needed
        ref = memory_for_loop(loop, seed=3)
        run_loop(loop, ref, 0, trip)

        mem = memory_for_loop(loop, seed=3)
        run = simulate_pipeline(unit.schedule, mem, trip // factor)
        assert ref.snapshot_user_arrays() == mem.snapshot_user_arrays()
        # carried scalars (reductions) agree too
        seq = run_loop(loop, memory_for_loop(loop, seed=3), 0, trip)
        for name, value in seq.carried.items():
            assert run.carried[name] == pytest.approx(value, abs=1e-12)

    def test_generated_loops(self):
        machine = paper_machine()
        for archetype, seed in (("stencil", 5), ("mixed", 8), ("fp_chain", 2)):
            loop = generate(archetype, seed)
            unit = compiled_unit(loop, machine, Strategy.SELECTIVE)
            trip = 10 * unit.transform.factor
            ref = memory_for_loop(loop, seed=1)
            run_loop(loop, ref, 0, trip)
            mem = memory_for_loop(loop, seed=1)
            simulate_pipeline(unit.schedule, mem, trip // unit.transform.factor)
            assert ref.snapshot_user_arrays() == mem.snapshot_user_arrays()

    @pytest.mark.parametrize("archetype", sorted(GENERATORS))
    @pytest.mark.parametrize("machine_name", ["paper", "vl4", "freecomm"])
    def test_every_unit_of_every_strategy(self, machine_name, archetype):
        """Every scheduled unit of every strategy (traditional yields
        several; reassociation swaps in the reduction transform) leaves
        memory and carried values exactly where the interpreter leaves
        them when both run the unit loop from the same seeded memory."""
        machine = machine_by_name(machine_name)
        variants = [
            (Strategy.BASELINE, False),
            (Strategy.TRADITIONAL, False),
            (Strategy.FULL, False),
            (Strategy.SELECTIVE, False),
            (Strategy.SELECTIVE, True),
        ]
        iterations = 5
        for seed in (1, 2):
            loop = generate(archetype, seed)
            for strategy, reassociate in variants:
                compiled = compile_loop(
                    loop, machine, strategy, allow_reassociation=reassociate
                )
                for unit in compiled.units:
                    unit_loop = unit.schedule.loop
                    mem = memory_for_loop(unit_loop, seed=seed)
                    ref = mem.copy()
                    run = simulate_pipeline(unit.schedule, mem, iterations)
                    seq = run_loop(unit_loop, ref, 0, iterations)
                    where = f"{loop.name} {strategy.value} {unit_loop.name}"
                    assert (
                        mem.snapshot_user_arrays() == ref.snapshot_user_arrays()
                    ), where
                    assert run.carried == seq.carried, where

    def test_free_communication_machine(self):
        machine = figure1_machine()
        loop = ALL_KERNELS["dot_product"]()
        unit = compiled_unit(loop, machine, Strategy.SELECTIVE)
        mem = memory_for_loop(loop, seed=2)
        run = simulate_pipeline(unit.schedule, mem, 10)
        seq = run_loop(loop, memory_for_loop(loop, seed=2), 0, 20)
        assert run.carried["s"] == pytest.approx(seq.carried["s"])

    def test_zero_iterations(self):
        machine = paper_machine()
        loop = ALL_KERNELS["saxpy"]()
        unit = compiled_unit(loop, machine, Strategy.BASELINE)
        mem = memory_for_loop(loop, seed=2)
        run = simulate_pipeline(unit.schedule, mem, 0)
        assert run.cycles == 0


class TestTimingConsistency:
    @pytest.mark.parametrize("kernel", ["stencil3", "relaxation", "mgrid_resid"])
    def test_makespan_within_model(self, kernel):
        """Measured makespan must not exceed the closed-form model
        (m + stages - 1) * II, and must approach m * II from above."""
        machine = paper_machine()
        loop = ALL_KERNELS[kernel]()
        unit = compiled_unit(loop, machine, Strategy.SELECTIVE)
        m = 20
        mem = memory_for_loop(loop, seed=4)
        run = simulate_pipeline(unit.schedule, mem, m)
        ii = unit.schedule.ii
        stages = unit.schedule.stage_count
        model = (m + stages - 1) * ii
        assert run.cycles <= model
        assert run.cycles >= m * ii

    def test_utilization_bounded(self):
        machine = paper_machine()
        loop = ALL_KERNELS["relaxation"]()
        unit = compiled_unit(loop, machine, Strategy.SELECTIVE)
        mem = memory_for_loop(loop, seed=4)
        run = simulate_pipeline(unit.schedule, mem, 30)
        assert 0.0 < run.utilization <= 1.0


class TestScheduleValidation:
    def test_corrupted_schedule_detected(self):
        """Moving a consumer before its producer must surface as a
        read-before-produce error, not silent wrong answers."""
        machine = paper_machine()
        loop = ALL_KERNELS["dot_product"]()
        unit = compiled_unit(loop, machine, Strategy.BASELINE)
        schedule = unit.schedule
        # find a flow-dependent pair inside one iteration and swap times
        body = schedule.loop.body
        mul = next(op for op in body if op.kind.value == "mul")
        producer = next(
            op for op in body if op.dest is not None and op.dest in mul.srcs
        )
        times = dict(schedule.times)
        times[mul.uid] = 0
        times[producer.uid] = 50
        from dataclasses import replace

        broken = replace(schedule, times=times)
        mem = memory_for_loop(loop, seed=2)
        with pytest.raises(InterpreterError):
            simulate_pipeline(broken, mem, 4)


class TestKernelRendering:
    def test_kernel_listing(self):
        machine = paper_machine()
        loop = ALL_KERNELS["dot_product"]()
        unit = compiled_unit(loop, machine, Strategy.SELECTIVE)
        text = kernel_listing(unit.schedule)
        assert "II=" in text and "cycle 0" in text

    def test_pipeline_listing_phases(self):
        machine = paper_machine()
        loop = ALL_KERNELS["saxpy"]()
        unit = compiled_unit(loop, machine, Strategy.BASELINE)
        text = pipeline_listing(unit.schedule, 6)
        assert "prologue" in text and "kernel" in text and "epilogue" in text
        # every iteration index appears
        for j in range(6):
            assert f"({j})" in text

    def test_prologue_epilogue_cycles(self):
        machine = paper_machine()
        loop = ALL_KERNELS["saxpy"]()
        unit = compiled_unit(loop, machine, Strategy.BASELINE)
        fill, drain = prologue_epilogue_cycles(unit.schedule)
        assert fill == drain
        assert fill == (unit.schedule.stage_count - 1) * unit.schedule.ii
