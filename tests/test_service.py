"""The shared pure compile entry point (`repro.compiler.service`).

`compile_one` must be exactly `compile_loop` with named knobs — the
Evaluator, sweep runner, CLI, and compile server all route through it,
so any drift here is drift everywhere at once.
"""

from __future__ import annotations

import json

from repro.compiler.driver import compile_loop
from repro.compiler.service import (
    CompiledLoopPayload,
    CompileRequest,
    compile_one,
    effort_counters,
)
from repro.compiler.strategies import Strategy
from repro.frontend import parse_loop
from repro.machine.configs import (
    MACHINE_FACTORIES,
    machine_by_name,
    paper_machine,
)
from repro.observability.effort import EFFORT
from repro.workloads.generator import generate

DSL = "array x(64), z(64)\ndo i\n z(i) = x(i) + x(i) * 2.0\nend"


class TestCompileOne:
    def test_matches_direct_driver_call(self):
        machine = paper_machine()
        for label in ("selective", "traditional", "full"):
            loop = parse_loop(DSL)
            direct = compile_loop(loop, machine, Strategy(label))
            served = compile_one(
                CompileRequest(
                    loop=parse_loop(DSL),
                    machine=machine,
                    strategy=Strategy(label),
                )
            ).compiled
            assert served.ii_per_iteration() == direct.ii_per_iteration()
            assert served.n_vector_ops == direct.n_vector_ops
            assert served.n_transfers == direct.n_transfers
            assert effort_counters(served) == effort_counters(direct)

    def test_knobs_are_forwarded(self):
        machine = paper_machine()
        request = CompileRequest(
            loop=generate("fp_chain", 7),
            machine=machine,
            strategy=Strategy("selective"),
            optimize=True,
        )
        direct = compile_loop(
            generate("fp_chain", 7), machine, Strategy("selective"),
            optimize=True,
        )
        assert (
            compile_one(request).compiled.ii_per_iteration()
            == direct.ii_per_iteration()
        )


class TestCacheKey:
    def test_rebuilt_loop_hashes_equal(self):
        machine = paper_machine()
        keys = {
            CompileRequest(
                loop=generate("stencil", 11),
                machine=machine,
                strategy=Strategy("selective"),
            ).cache_key()
            for _ in range(3)
        }
        assert len(keys) == 1

    def test_distinct_inputs_hash_distinct(self):
        machine = paper_machine()
        base = CompileRequest(
            loop=generate("stencil", 11),
            machine=machine,
            strategy=Strategy("selective"),
        )
        other_loop = CompileRequest(
            loop=generate("stencil", 12),
            machine=machine,
            strategy=Strategy("selective"),
        )
        other_strategy = CompileRequest(
            loop=generate("stencil", 11),
            machine=machine,
            strategy=Strategy("traditional"),
        )
        other_knob = CompileRequest(
            loop=generate("stencil", 11),
            machine=machine,
            strategy=Strategy("selective"),
            optimize=True,
        )
        keys = {
            base.cache_key(),
            other_loop.cache_key(),
            other_strategy.cache_key(),
            other_knob.cache_key(),
        }
        assert len(keys) == 4


class TestSummary:
    def test_summary_is_json_and_complete(self):
        payload = compile_one(
            CompileRequest(
                loop=parse_loop(DSL),
                machine=paper_machine(),
                strategy=Strategy("selective"),
            )
        )
        summary = json.loads(json.dumps(payload.summary()))
        for field in (
            "loop",
            "machine",
            "strategy",
            "ii",
            "res_mii",
            "rec_mii",
            "units",
            "n_vector_ops",
            "n_transfers",
            "resource_limited",
            "effort",
        ):
            assert field in summary
        assert summary["strategy"] == "selective"
        assert summary["units"]
        assert summary["effort"]["sched_attempts"] >= 1

    def test_partition_effort_present_when_partitioned(self):
        payload = compile_one(
            CompileRequest(
                loop=generate("mixed", 5),
                machine=paper_machine(),
                strategy=Strategy("selective"),
            )
        )
        effort = effort_counters(payload.compiled)
        if payload.compiled.partition is not None:
            # Exactly the gated counters: the dead probe-cache counter is
            # gone from every effort record.
            assert set(effort) == {counter.name for counter in EFFORT}


class TestMachineRegistry:
    def test_every_registry_name_resolves(self):
        for name in MACHINE_FACTORIES:
            machine = machine_by_name(name)
            assert machine.vector_length >= 1

    def test_unknown_name_lists_options(self):
        try:
            machine_by_name("nope")
        except KeyError as exc:
            assert "paper" in str(exc)
        else:
            raise AssertionError("expected KeyError")
