"""Tests for the compilation driver, timing model, and Table 3 plumbing."""

import pytest

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import ALL_STRATEGIES, Strategy
from repro.simulate.timing import LOOP_SETUP_CYCLES, UnitTiming, aggregate_cycles
from repro.workloads.kernels import dot_product, first_order_recurrence


class TestUnitTiming:
    def test_zero_trip_pays_only_setup(self):
        t = UnitTiming(ii=3, stages=4, factor=2, cleanup_cycles=10, preheader_cycles=1)
        assert t.invocation_cycles(0) == LOOP_SETUP_CYCLES + 1

    def test_pipeline_formula(self):
        t = UnitTiming(ii=3, stages=4, factor=2, cleanup_cycles=10, preheader_cycles=0)
        # 10 kernel iterations: (10 + 3) * 3
        assert t.invocation_cycles(20) == LOOP_SETUP_CYCLES + 13 * 3

    def test_cleanup_charged_per_residual(self):
        t = UnitTiming(ii=3, stages=2, factor=2, cleanup_cycles=10, preheader_cycles=0)
        with_residual = t.invocation_cycles(21)
        without = t.invocation_cycles(20)
        assert with_residual == without + 10

    def test_trip_below_factor_runs_only_cleanup(self):
        t = UnitTiming(ii=3, stages=2, factor=2, cleanup_cycles=10, preheader_cycles=0)
        assert t.invocation_cycles(1) == LOOP_SETUP_CYCLES + 10

    def test_negative_trip_rejected(self):
        t = UnitTiming(ii=1, stages=1, factor=1, cleanup_cycles=0, preheader_cycles=0)
        with pytest.raises(ValueError):
            t.invocation_cycles(-1)

    def test_aggregate_cycles(self):
        a = UnitTiming(ii=2, stages=1, factor=1, cleanup_cycles=0, preheader_cycles=0)
        b = UnitTiming(ii=3, stages=1, factor=1, cleanup_cycles=0, preheader_cycles=0)
        total = aggregate_cycles([a, b], 10)
        assert total == (LOOP_SETUP_CYCLES + 20) + (LOOP_SETUP_CYCLES + 30)


class TestCompiledLoop:
    def test_monotone_in_trip_count(self, paper, dot_loop):
        for strategy in ALL_STRATEGIES:
            compiled = compile_loop(dot_loop, paper, strategy)
            cycles = [compiled.invocation_cycles(n) for n in (0, 2, 10, 50, 200)]
            assert cycles == sorted(cycles)

    def test_resource_limited_flag(self, paper):
        parallel = compile_loop(dot_product(), paper, Strategy.BASELINE,
                                baseline_unroll=1)
        serial = compile_loop(first_order_recurrence(), paper, Strategy.BASELINE)
        assert serial.rec_mii_per_iteration() > serial.res_mii_per_iteration()
        assert not serial.is_resource_limited

    def test_res_mii_lower_bounds_ii(self, paper, dot_loop, stream_loop):
        for loop in (dot_loop, stream_loop):
            for strategy in ALL_STRATEGIES:
                compiled = compile_loop(loop, paper, strategy)
                assert (
                    compiled.ii_per_iteration()
                    >= compiled.res_mii_per_iteration() - 1e-9
                )

    def test_baseline_unroll_override(self, paper, dot_loop):
        u1 = compile_loop(dot_loop, paper, Strategy.BASELINE, baseline_unroll=1)
        u2 = compile_loop(dot_loop, paper, Strategy.BASELINE)
        assert u1.units[0].factor == 1
        assert u2.units[0].factor == 2

    def test_selective_records_partition(self, paper, dot_loop):
        compiled = compile_loop(dot_loop, paper, Strategy.SELECTIVE)
        assert compiled.partition is not None
        assert compiled.partition.scalar_cost >= compiled.partition.cost

    def test_optimize_flag_runs_pipeline(self, paper):
        from repro.frontend import parse_loop

        loop = parse_loop(
            "array x(128), z(128)\ndo i\n dead = x(i) * 2.0\n z(i) = x(i)\nend"
        )
        plain = compile_loop(loop, paper, Strategy.BASELINE)
        opt = compile_loop(loop, paper, Strategy.BASELINE, optimize=True)
        assert opt.invocation_cycles(100) <= plain.invocation_cycles(100)

    def test_traditional_unit_structure(self, paper, dot_loop):
        compiled = compile_loop(dot_loop, paper, Strategy.TRADITIONAL)
        assert len(compiled.units) == 2
        factors = [u.factor for u in compiled.units]
        assert factors == [2, 1]  # vector loop steps by VL; scalar loop by 1
