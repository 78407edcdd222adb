"""Tests for modulo variable expansion."""

import math

import pytest

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.machine.configs import paper_machine
from repro.pipeline.mve import (
    expanded_kernel_listing,
    modulo_variable_expansion,
    value_lifetimes,
)
from repro.workloads.kernels import ALL_KERNELS
from tests.regalloc_spec import _live_copies


def unit_and_graph(kernel, strategy=Strategy.BASELINE):
    machine = paper_machine()
    loop = ALL_KERNELS[kernel]()
    compiled = compile_loop(loop, machine, strategy)
    unit = compiled.units[0]
    graph = analyze_loop(unit.transform.loop, machine.vector_length).graph
    return unit, graph


class TestLifetimes:
    def test_lifetime_covers_latency(self):
        unit, graph = unit_and_graph("saxpy")
        schedule = unit.schedule
        lifetimes = value_lifetimes(schedule, graph)
        for op in schedule.loop.body:
            if op.dest is None:
                continue
            start, end = lifetimes[op.dest]
            assert start == schedule.times[op.uid]
            latency = schedule.machine.opcode_info(op).latency
            assert end >= start + max(1, latency)

    def test_lifetime_extends_to_consumers(self):
        unit, graph = unit_and_graph("dot_product")
        schedule = unit.schedule
        lifetimes = value_lifetimes(schedule, graph)
        for edge in graph.edges:
            src = graph.ops[edge.src]
            if src.dest is None or src.dest not in lifetimes:
                continue
            _, end = lifetimes[src.dest]


class TestUnrollFactor:
    @pytest.mark.parametrize("kernel", ["saxpy", "dot_product", "relaxation"])
    def test_unroll_is_max_copies(self, kernel):
        unit, graph = unit_and_graph(kernel)
        schedule = unit.schedule
        mve = modulo_variable_expansion(schedule, graph)
        lifetimes = value_lifetimes(schedule, graph)
        expected = max(
            max(1, math.ceil((e - s) / schedule.ii))
            for s, e in lifetimes.values()
        )
        assert mve.unroll == expected
        assert mve.unroll >= schedule.stage_count - 1 or mve.unroll >= 1

    def test_copies_cover_maxlive(self):
        """The number of names MVE allocates for a value must cover the
        maximum number of its simultaneously live rotating copies."""
        unit, graph = unit_and_graph("relaxation", Strategy.SELECTIVE)
        schedule = unit.schedule
        mve = modulo_variable_expansion(schedule, graph)
        lifetimes = value_lifetimes(schedule, graph)
        for reg, (start, end) in lifetimes.items():
            worst = max(
                _live_copies(start, end, c, schedule.ii)
                for c in range(schedule.ii)
            )
            assert mve.copies_per_value[reg] >= worst

    def test_registers_per_file_totals(self):
        unit, graph = unit_and_graph("saxpy")
        mve = modulo_variable_expansion(unit.schedule, graph)
        assert sum(mve.registers_per_file.values()) == sum(
            mve.copies_per_value.values()
        )

    def test_names_for(self):
        unit, graph = unit_and_graph("saxpy")
        mve = modulo_variable_expansion(unit.schedule, graph)
        reg = next(iter(mve.copies_per_value))
        names = mve.names_for(reg)
        assert len(names) == mve.copies_per_value[reg]
        assert len(set(names)) == len(names)


class TestExpandedListing:
    def test_listing_has_all_copies(self):
        unit, graph = unit_and_graph("dot_product")
        mve = modulo_variable_expansion(unit.schedule, graph)
        text = expanded_kernel_listing(unit.schedule, graph)
        for u in range(mve.unroll):
            assert f"copy {u}:" in text
        assert f"unroll x{mve.unroll}" in text

    def test_round_robin_renaming_distinct_across_adjacent_copies(self):
        unit, graph = unit_and_graph("saxpy")
        mve = modulo_variable_expansion(unit.schedule, graph)
        if mve.unroll < 2:
            pytest.skip("kernel needs no expansion")
        text = expanded_kernel_listing(unit.schedule, graph)
        # values with >1 copy must use a different name in copy 0 and 1
        multi = [r for r, n in mve.copies_per_value.items() if n > 1]
        assert multi
        for reg in multi:
            assert f"{reg.name}#0" in text and f"{reg.name}#1" in text
