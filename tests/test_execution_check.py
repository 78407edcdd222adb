"""The execution checker, on every strategy, in process and read back.

``repro.check.interpreted`` and ``execution_mismatch`` compare a
compiled loop's memory and carried scalars with the interpreter's on the
source loop.  A sample of SPEC-suite and generated loops is compiled
under all four strategies on ``paper``, ``vl4`` and ``freecomm`` and run
at trips 1, 13 and VL+1, so each factor-VL unit runs its cleanup loop;
so is the same compile after ``CompileCache.store`` and ``load``.  A
loaded loop builds each cleanup from its recorded residual: no
dependence graph, Tarjan run or component ordering.
"""

import pytest

import repro.dependence.analysis as analysis
import repro.vectorize.transform as transform
from repro.check import execution_mismatch, interpreted
from repro.compiler.driver import compile_loop
from repro.compiler.service import CompileRequest
from repro.compiler.strategies import Strategy
from repro.evaluation.compile_cache import CompileCache
from repro.machine.configs import machine_by_name
from repro.workloads.generator import generate
from repro.workloads.spec import BENCHMARK_NAMES, build_benchmark

SEED = 11


def _sample():
    """Every 16th loop of each SPEC benchmark and one loop of most
    generator archetypes."""
    spec = [
        wl.loop
        for name in BENCHMARK_NAMES
        for wl in build_benchmark(name).loops[::16]
    ]
    generated = [
        generate(archetype, seed)
        for archetype, seed in (
            ("fp_chain", 3),
            ("stencil", 11),
            ("mixed", 7),
            ("memory_bound", 5),
            ("interleaved", 2),
            ("reduction", 4),
            ("recurrence", 6),
            ("strided", 8),
        )
    ]
    return spec + generated


LOOPS = _sample()


@pytest.fixture
def analysis_calls(monkeypatch):
    """Every graph build, Tarjan run and component ordering, by name."""
    calls = []
    for name in ("build_dependence_graph", "tarjan_sccs", "ordered_components"):
        original = getattr(analysis, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls


@pytest.fixture
def cleanup_builds(monkeypatch):
    """The residual loop of every ``.cl`` loop emitted, by name."""
    built = []
    build = transform._Emitter.build

    def counted(emitter):
        if emitter.suffix == ".cl":
            built.append(emitter.loop.name)
        return build(emitter)

    monkeypatch.setattr(transform._Emitter, "build", counted)
    return built


@pytest.mark.parametrize("machine_name", ["paper", "vl4", "freecomm"])
def test_every_strategy_executes_as_interpreted_in_process_and_loaded(
    machine_name, tmp_path, analysis_calls, cleanup_builds
):
    machine = machine_by_name(machine_name)
    trips = (1, 13, machine.vector_length + 1)
    cache = CompileCache(str(tmp_path))
    for loop in LOOPS:
        seeded, runs = interpreted(loop, trips, SEED)
        for strategy in Strategy:
            compiled = compile_loop(loop, machine, strategy)
            assert execution_mismatch(compiled, seeded, runs) is None, (
                loop.name,
                strategy,
            )
            key = CompileRequest(loop, machine, strategy).cache_key()
            cache.store(key, compiled)
            loaded = cache.load(key)
            del analysis_calls[:], cleanup_builds[:]
            assert execution_mismatch(loaded, seeded, runs) is None, (
                loop.name,
                strategy,
            )
            assert analysis_calls == []
            assert cleanup_builds == [
                unit.transform.residual.loop.name
                for unit in loaded.units
                if unit.factor > 1
            ]


def test_mismatch_names_what_differs_and_the_trip():
    """The checker fails a result that is off in memory or in a carried
    scalar, and says where."""
    loop = generate("reduction", 4)
    compiled = compile_loop(loop, machine_by_name("paper"), Strategy.SELECTIVE)
    seeded, runs = interpreted(loop, (1, 13), SEED)
    assert execution_mismatch(compiled, seeded, runs) is None

    _, arrays, carried = runs[1]
    carried["s"] += 1.0
    assert execution_mismatch(compiled, seeded, runs).startswith("carried s is ")
    assert execution_mismatch(compiled, seeded, runs).endswith(", at trip 13")
    arrays["y"][0] += 1.0
    assert (
        execution_mismatch(compiled, seeded, runs)
        == "memory differs from the interpreter at trip 13"
    )
