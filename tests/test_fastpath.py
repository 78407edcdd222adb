"""Fast-path equivalence tests: the compile-time optimizations must be
behavior-preserving.

Covered here:

* ``Bins`` snapshot marks: ``rollback`` restores weights, ledger and
  high-water mark exactly and drops exactly the keys reserved since;
* the ``TEST-REPARTITION`` probe on a copy of the loads equals the
  reference probe on the dict-keyed spec bins and never writes the live
  bins;
* ``FIND-OP-TO-SWITCH``'s incumbent bound cuts probes short and changes
  no partition;
* :class:`IncrementalPacker`'s resumed pack equals a from-scratch
  ``BIN-PACK`` after every move, and each bounded probe the exact one
  (via ``REPRO_KL_VERIFY``), and the self-check moves no effort counter;
* the remaining fast paths fire: resumed packs replay fewer steps than
  fresh packs, and each (op, side) plan is resolved once per model;
* the floor-bounded Kernighan-Lin iteration matches the uncut one
  (``tests/kl_spec.py``) to the last result field on generated loops on
  five machines under five configs, with no more probes, re-packs or
  replayed pack steps; the floor fires, and ``REPRO_KL_VERIFY`` catches
  a floor above a packed cost;
* ``edge_delays`` equals per-edge ``edge_delay``;
* unit analyses are graph-only and cleanup loops are built on demand:
  Tarjan runs only where the components or the classification are read,
  and a compile emits, verifies, analyzes and pickles no cleanup loop
  until something reads it;
* each per-unit fact is computed once: RecMII runs Bellman-Ford once per
  improving cycle plus one critical-cycle extraction, ResMII packs every
  operation in one replay, a transform orders the components once for
  its main and cleanup emitters, and the dependence builder builds each
  memory operation's lane subscripts once;
* the parallel evaluator and the compile cache reproduce serial,
  cold-compile results bit-for-bit, with identical deterministic effort
  counters.
"""

import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.dependence.graph import Via
from repro.ir.builder import LoopBuilder
from repro.ir.values import const_f64
from repro.machine.configs import MACHINE_FACTORIES, paper_machine
from repro.observability.recorder import recording
from repro.pipeline.mii import edge_delay, edge_delays, rec_mii, res_mii
from repro.pipeline.reservation import ModuloReservationTable
from repro.pipeline.scheduler import modulo_schedule
from repro.vectorize.bins import Bins
from repro.vectorize.communication import Side
from repro.vectorize.partition import (
    ClassFloor,
    IncrementalPacker,
    PartitionCostModel,
    PartitionConfig,
    partition_operations,
)
from repro.vectorize.transform import transform_loop
from repro.workloads.generator import GENERATORS, generate
from tests import dependence_spec, kl_spec, mii_spec
from tests.bins_spec import Bins as SpecBins
from tests.communication_spec import transfer_for_key

MACHINE = paper_machine()

ARCHETYPE_SEEDS = [
    ("fp_chain", 3),
    ("stencil", 11),
    ("mixed", 7),
    ("memory_bound", 5),
    ("interleaved", 2),
]
#: Loops whose KL search still moves.  ``interleaved`` seed 2 is optimal
#: all scalar, and the class floor ends its only iteration before a move.
MOVING_SEEDS = [*ARCHETYPE_SEEDS[:-1], ("interleaved", 1)]


def _dep(archetype, seed):
    return analyze_loop(generate(archetype, seed), MACHINE.vector_length)


def _bins_state(bins):
    return (
        dict(bins.weights),
        {k: list(v) for k, v in bins.reservations.items()},
        bins.high_water_mark(),
    )


# ----------------------------------------------------------------------
# Bins snapshot marks


def test_checkpoint_rollback_restores_exact_state():
    rng = random.Random(0)
    dep = _dep("mixed", 1)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    bins = model.bin_pack(assignment)
    before = _bins_state(bins)
    mark = bins.checkpoint()
    ops = list(dep.loop.body)
    for n in range(30):
        op = rng.choice(ops)
        side = rng.choice((Side.SCALAR, Side.VECTOR))
        bins.reserve(model.op_step(op, side)[1], ("extra", n))
    assert _bins_state(bins) != before
    bins.rollback(mark)
    assert _bins_state(bins) == before


def test_nested_checkpoints_rollback_to_marks():
    """Under the marks ``replay`` takes before each step, ``rollback``
    drops exactly the keys reserved after the mark and restores the
    high-water mark, innermost mark first or straight to the outermost."""
    dep = _dep("fp_chain", 3)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    assignment = {op.uid: Side.VECTOR for op in dep.loop.body}
    steps = model.pack_sequence(assignment)
    bins = Bins(MACHINE)
    marks = []
    bins.replay(steps, marks)
    assert len(marks) == len(steps)
    for j in reversed(range(0, len(steps), 3)):
        bins.rollback(marks[j])
        assert list(bins.reservations) == [key for key, _ in steps[:j]]
        fresh = Bins(MACHINE)
        fresh.replay(steps[:j])
        assert _bins_state(bins) == _bins_state(fresh)
    assert bins.high_water_mark() == 0 and not bins.reservations
    bins.replay(steps)
    bins.rollback(marks[0])
    assert _bins_state(bins) == _bins_state(Bins(MACHINE))


# ----------------------------------------------------------------------
# Probe protocol


def _spec_pack(model, assignment):
    """BIN-PACK on the dict-keyed spec bins, each step's opcodes under
    its key, in the model's pack order."""
    spec = SpecBins(MACHINE)
    body = {op.uid: op for op in model.dep.loop.body}
    for kind, ident in (key for key, _ in model.pack_sequence(assignment)):
        if kind == "op":
            opcodes = model.op_opcodes(body[ident], assignment[ident])
        elif kind == "comm":
            transfer = transfer_for_key(model.dataflow, assignment, ident)
            opcodes = model.transfer_opcodes(transfer)
        else:
            opcodes = (model.overhead_opcodes()[ident],)
        spec.reserve_all(opcodes, (kind, ident))
    return spec


def _reference_probe(model, spec, assignment, op):
    """The pre-fast-path TEST-REPARTITION on the spec bins: deep-copy,
    release, and re-reserve several opcodes under one key."""
    probe = spec.copy()
    probe.release(("op", op.uid))
    touched = model.touch_keys[op.uid]
    for key in touched:
        if probe.has_key(("comm", key)):
            probe.release(("comm", key))
    new_side = assignment[op.uid].flipped()
    assignment[op.uid] = new_side
    try:
        probe.reserve_all(model.op_opcodes(op, new_side), ("op", op.uid))
        for key in touched:
            transfer = transfer_for_key(model.dataflow, assignment, key)
            if transfer is None:
                continue
            opcodes = model.transfer_opcodes(transfer)
            if opcodes:
                probe.reserve_all(opcodes, ("comm", key))
    finally:
        assignment[op.uid] = new_side.flipped()
    return probe.high_water_mark()


@pytest.mark.parametrize("archetype,seed", ARCHETYPE_SEEDS)
def test_probe_matches_reference_and_restores_bins(archetype, seed):
    rng = random.Random(seed)
    dep = _dep(archetype, seed)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    candidates = [op for op in dep.loop.body if dep.is_vectorizable(op)]
    all_scalar = {op.uid: Side.SCALAR for op in dep.loop.body}
    mixed = dict(all_scalar)
    for op in candidates:
        mixed[op.uid] = rng.choice((Side.SCALAR, Side.VECTOR))
    for assignment in (all_scalar, mixed):
        bins = model.bin_pack(assignment)
        spec = _spec_pack(model, assignment)
        assert bins.weights == spec.weights
        for op in candidates:
            before = _bins_state(bins)
            expected = _reference_probe(model, spec, assignment, op)
            got = model.probe_cost(bins, assignment, op)
            assert got == expected
            assert _bins_state(bins) == before


def test_kl_probe_never_writes_the_live_bins(monkeypatch):
    """TEST-REPARTITION fires on a copy: a probe makes no reserve,
    checkpoint or rollback call on the live bins, and leaves their loads
    and ledger equal."""
    dep = _dep("mixed", 7)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    packer = IncrementalPacker(model, assignment)
    bins = packer.bins
    calls = []
    for name in ("reserve", "checkpoint", "rollback"):
        method = getattr(Bins, name)

        def spy(self, *args, _name=name, _method=method):
            if self is bins:
                calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(Bins, name, spy)
    probed = 0
    for op in dep.loop.body:
        if dep.is_vectorizable(op):
            before = _bins_state(bins)
            model.probe_cost(bins, assignment, op)
            assert _bins_state(bins) == before
            probed += 1
    assert probed and model.n_probes == probed
    assert calls == []


@pytest.mark.parametrize("archetype,seed", MOVING_SEEDS)
def test_incumbent_bound_cuts_probes_and_changes_no_partition(
    archetype, seed, monkeypatch
):
    """FIND-OP-TO-SWITCH bounds each probe by the best so far: probes
    stop before drawing a plan, fewer plans are drawn than with the
    bound off, and the result is the same to the last counter."""
    dep = _dep(archetype, seed)
    probe = Bins.probe
    drawn = []

    def spy(bins, keys, plans, bound=inf):
        drawn.append(0)

        def counted():
            for plan in plans:
                drawn[-1] += 1
                yield plan

        return probe(bins, keys, counted(), bound)

    monkeypatch.setattr(Bins, "probe", spy)
    bounded = partition_operations(dep, MACHINE)
    bounded_draws = list(drawn)
    drawn.clear()
    monkeypatch.setattr(
        Bins, "probe", lambda bins, keys, plans, bound=inf: spy(bins, keys, plans)
    )
    unbounded = partition_operations(dep, MACHINE)
    assert bounded == unbounded
    assert len(bounded_draws) == len(drawn) == bounded.n_probes
    assert 0 not in drawn
    assert bounded_draws.count(0) > 0
    assert sum(bounded_draws) < sum(drawn)


def test_verify_mode_catches_a_wrong_bounded_probe(monkeypatch):
    """REPRO_KL_VERIFY checks every bounded probe against an exact one: a
    probe that answers its bound in place of a lower exact cost fails,
    naming the loop and the op."""
    probe = Bins.probe

    def wrong(bins, keys, plans, bound=inf):
        return probe(bins, keys, plans) if bound == inf else bound

    monkeypatch.setattr(Bins, "probe", wrong)
    monkeypatch.setenv("REPRO_KL_VERIFY", "1")
    dep = _dep("mixed", 7)
    with pytest.raises(
        AssertionError, match=rf"bounded probe of op \d+ in loop '{dep.loop.name}'"
    ):
        partition_operations(dep, MACHINE)


# ----------------------------------------------------------------------
# Resumed packing (the commit path)


@pytest.mark.parametrize("archetype,seed", ARCHETYPE_SEEDS)
def test_packer_repack_equals_fresh_bin_pack(archetype, seed):
    rng = random.Random(seed)
    dep = _dep(archetype, seed)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    packer = IncrementalPacker(model, assignment)
    flippable = [op for op in dep.loop.body if dep.is_vectorizable(op)]
    if not flippable:
        pytest.skip("archetype generated no vectorizable ops")
    for _ in range(12):
        op = rng.choice(flippable)
        assignment[op.uid] = assignment[op.uid].flipped()
        cost = packer.repack(assignment)
        reference = model.bin_pack(assignment)
        assert packer.bins.weights == reference.weights
        assert packer.bins.reservations == reference.reservations
        assert cost == reference.high_water_mark()


@pytest.mark.parametrize("archetype,seed", ARCHETYPE_SEEDS)
def test_partition_verify_mode_passes(archetype, seed, monkeypatch):
    """REPRO_KL_VERIFY=1 asserts the resumed pack against a reference
    bin-pack after every move of the real KL search, and each bounded
    probe against an exact one."""
    monkeypatch.setenv("REPRO_KL_VERIFY", "1")
    dep = _dep(archetype, seed)
    partition_operations(dep, MACHINE)


# ----------------------------------------------------------------------
# The fast paths fire


@pytest.mark.parametrize("archetype,seed", ARCHETYPE_SEEDS)
def test_verify_mode_leaves_effort_counters_unchanged(archetype, seed, monkeypatch):
    """The REPRO_KL_VERIFY self-check packs without counting, so every
    effort counter reads the same with verification on or off."""
    dep = _dep(archetype, seed)
    monkeypatch.delenv("REPRO_KL_VERIFY", raising=False)
    plain = partition_operations(dep, MACHINE)
    monkeypatch.setenv("REPRO_KL_VERIFY", "1")
    verified = partition_operations(dep, MACHINE)
    effort = (
        "iterations",
        "moves",
        "moves_accepted",
        "n_probes",
        "n_bin_packs",
        "n_repacks",
        "n_pack_steps",
    )
    assert [getattr(verified, f) for f in effort] == [getattr(plain, f) for f in effort]
    assert verified.assignment == plain.assignment


def test_packer_resume_replays_fewer_steps_than_fresh_packs(monkeypatch):
    """IncrementalPacker resume fires: across the archetype loops' KL
    searches, it replays strictly fewer steps than packing every
    configuration from scratch would."""
    fresh_steps = []
    pack_sequence = PartitionCostModel.pack_sequence

    def counted(model, assignment):
        steps = pack_sequence(model, assignment)
        fresh_steps.append(len(steps))
        return steps

    monkeypatch.setattr(PartitionCostModel, "pack_sequence", counted)
    for archetype, seed in MOVING_SEEDS:
        fresh_steps.clear()
        result = partition_operations(_dep(archetype, seed), MACHINE)
        # One sequence for the initial pack, one per resumed repack.
        assert len(fresh_steps) == result.n_repacks + 1
        assert result.n_repacks > 1
        assert result.n_pack_steps < sum(fresh_steps), archetype


def test_plan_memo_resolves_each_op_side_once(monkeypatch):
    """The plan memo fires: each (op, side) is resolved to opcodes and a
    plan once per model, however often probes and packs reserve it, and
    repeated pack sequences share their step objects."""
    resolved = []
    select = PartitionCostModel._select_op_opcodes

    def counted(model, op, side):
        resolved.append((id(model), op.uid, side))
        return select(model, op, side)

    monkeypatch.setattr(PartitionCostModel, "_select_op_opcodes", counted)
    for archetype, seed in MOVING_SEEDS:
        resolved.clear()
        result = partition_operations(_dep(archetype, seed), MACHINE)
        assert len(resolved) == len(set(resolved))
        assert result.n_probes + result.n_pack_steps > 2 * len(resolved)
    dep = _dep("mixed", 7)
    model = PartitionCostModel(dep, MACHINE, PartitionConfig())
    assignment = {op.uid: Side.SCALAR for op in dep.loop.body}
    first, second = model.pack_sequence(assignment), model.pack_sequence(assignment)
    assert all(a is b for a, b in zip(first, second, strict=True))


# ----------------------------------------------------------------------
# Floor-bounded Kernighan-Lin iterations

KL_MACHINES = ("paper", "vl4", "freecomm", "aligned", "figure1")
KL_CONFIGS = (
    PartitionConfig(),
    PartitionConfig(account_communication=False),
    PartitionConfig(account_alignment=False),
    PartitionConfig(balanced_bin_packing=False),
    PartitionConfig(max_iterations=1),
)


def _kl_result(result):
    return (
        result.assignment,
        result.cost,
        result.scalar_cost,
        result.iterations,
        result.history,
        result.moves_accepted,
    )


@pytest.mark.parametrize("machine_name", KL_MACHINES)
@settings(max_examples=40, deadline=None)
@given(archetype=st.sampled_from(sorted(GENERATORS)), seed=st.integers(0, 5_000))
def test_floor_bounded_kl_matches_the_uncut_spec(machine_name, archetype, seed):
    """Ending an iteration once the class floor reaches the best cost
    changes no result field under any config, and it never probes,
    re-packs or replays more than the uncut iteration."""
    machine = MACHINE_FACTORIES[machine_name]()
    dep = analyze_loop(generate(archetype, seed), machine.vector_length)
    for config in KL_CONFIGS:
        got = partition_operations(dep, machine, config)
        spec = kl_spec.partition_operations(dep, machine, config)
        assert _kl_result(got) == _kl_result(spec)
        assert got.n_probes <= spec.n_probes
        assert got.n_repacks <= spec.n_repacks
        assert got.n_pack_steps <= spec.n_pack_steps


def test_class_floor_ends_an_iteration_before_any_move():
    """All scalar is optimal for this loop, and the floor proves it
    before the first iteration's re-pack: no probe, no re-pack and no
    move, where the uncut iteration moves every candidate once."""
    dep = _dep("interleaved", 2)
    got = partition_operations(dep, MACHINE)
    spec = kl_spec.partition_operations(dep, MACHINE)
    assert _kl_result(got) == _kl_result(spec)
    assert got.history == [8, 8] and got.iterations == 1
    assert (got.n_probes, got.n_repacks, got.moves) == (0, 0, 0)
    assert (spec.n_probes, spec.n_repacks, spec.moves) == (28, 8, 7)


def test_class_floor_cuts_the_probes_of_an_interleaved_loop():
    """The floor ends this loop's iterations part-way: it still moves,
    and probes less than half as often as the uncut search."""
    dep = _dep("interleaved", 1)
    got = partition_operations(dep, MACHINE)
    spec = kl_spec.partition_operations(dep, MACHINE)
    assert _kl_result(got) == _kl_result(spec)
    assert 0 < got.moves < spec.moves
    assert 0 < 2 * got.n_probes < spec.n_probes


def test_verify_mode_catches_an_inflated_floor(monkeypatch):
    """REPRO_KL_VERIFY checks the iteration's floor against every packed
    cost: a floor one cycle too high fails, naming the loop."""
    bound = ClassFloor.bound
    monkeypatch.setattr(ClassFloor, "bound", lambda floor: bound(floor) + 1)
    monkeypatch.setenv("REPRO_KL_VERIFY", "1")
    dep = _dep("fp_chain", 3)
    with pytest.raises(
        AssertionError,
        match=rf"class floor \d+ exceeds the packed cost \d+ in loop '{dep.loop.name}'",
    ):
        partition_operations(dep, MACHINE)


# ----------------------------------------------------------------------
# Edge-delay table


@pytest.mark.parametrize("archetype,seed", ARCHETYPE_SEEDS)
def test_edge_delays_table_matches_per_edge(archetype, seed):
    dep = _dep(archetype, seed)
    delays = edge_delays(dep.graph, MACHINE)
    assert set(delays) == set(dep.graph.edges)
    for edge in dep.graph.edges:
        assert delays[edge] == edge_delay(edge, dep.graph, MACHINE)


# ----------------------------------------------------------------------
# Graph-only unit analyses and on-demand cleanup loops


@pytest.mark.parametrize("strategy", list(Strategy))
def test_tarjan_runs_only_where_components_are_read(strategy, monkeypatch):
    """The scheduler and the allocator read only the dependence graph,
    and the cleanup list scheduler the component order the transform
    already read, so neither the transformed unit nor its cleanup runs
    Tarjan: one run for the loop, plus one per distributed piece under
    traditional vectorization."""
    import repro.dependence.analysis as analysis
    from repro.workloads.kernels import dot_product

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    runs = []
    tarjan = analysis.tarjan_sccs

    def counting_tarjan(*args):
        runs.append(args)
        return tarjan(*args)

    monkeypatch.setattr(analysis, "tarjan_sccs", counting_tarjan)
    compiled = compile_loop(dot_product(), MACHINE, strategy)
    if strategy is Strategy.TRADITIONAL:
        # The products vectorize; the reduction is a scalar piece.
        assert len(compiled.units) == 2
        assert len(runs) == 1 + len(compiled.units)
    else:
        assert any(u.transform.cleanup is not None for u in compiled.units)
        assert len(runs) == 1


def test_compile_builds_the_cleanup_loop_only_when_read(monkeypatch):
    """The on-demand cleanup fires: compiling a factor-2 request emits,
    verifies and analyzes no ``.cl`` loop and pickles none; the first
    read of the cleanup emits and verifies it once, and a second read
    returns the same loop."""
    import pickle

    import repro.compiler.driver as driver
    import repro.vectorize.transform as transform
    from repro.compiler.service import CompileRequest, compile_one

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    emitted, verified, analyzed = [], [], []
    build, verify = transform._Emitter.build, transform.verify_loop
    analyze = driver.analyze_loop

    def counting_build(emitter):
        loop, liveout = build(emitter)
        if emitter.suffix == ".cl":
            emitted.append(loop)
        return loop, liveout

    def counting_verify(loop):
        verified.append(loop.name)
        return verify(loop)

    def counting_analyze(loop, vector_length):
        analyzed.append(loop.name)
        return analyze(loop, vector_length)

    monkeypatch.setattr(transform._Emitter, "build", counting_build)
    monkeypatch.setattr(transform, "verify_loop", counting_verify)
    monkeypatch.setattr(driver, "analyze_loop", counting_analyze)
    loop = generate("mixed", 7)
    compiled = compile_one(CompileRequest(loop, MACHINE, Strategy.BASELINE)).compiled
    [unit] = compiled.units
    assert unit.factor == 2 and unit.timing.cleanup_cycles > 0
    assert emitted == []
    assert not [name for name in verified + analyzed if name.endswith(".cl")]
    assert f"{loop.name}.cl".encode() not in pickle.dumps(compiled)

    cleanup = unit.transform.cleanup
    assert emitted == [cleanup] and verified.count(cleanup.name) == 1
    assert unit.transform.cleanup is cleanup
    assert unit.transform.cleanup_liveout_map is unit.transform.cleanup_liveout_map
    assert len(emitted) == 1 and verified.count(cleanup.name) == 1
    # A built cleanup stays out of the pickle too.
    assert f"{loop.name}.cl".encode() not in pickle.dumps(compiled)


# ----------------------------------------------------------------------
# Per-unit facts computed once


def _memory_recurrence_unit(factor=1):
    """The loop of ``tests/test_scheduler.py::TestRecMII::
    test_memory_recurrence`` (load y[i], multiply, store y[i+1]),
    unrolled by ``factor``."""
    b = LoopBuilder("rec")
    b.array("y", dim_sizes=(2048,))
    t = b.load("y", b.idx(offset=0), name="t")
    u = b.mul(t, const_f64(0.5), name="u")
    b.store("y", b.idx(offset=1), u)
    loop = b.build()
    dep = analyze_loop(loop, MACHINE.vector_length)
    scalar = {op.uid: Side.SCALAR for op in loop.body}
    return transform_loop(dep, MACHINE, scalar, factor).loop


def test_rec_mii_runs_bellman_ford_once_per_improving_cycle():
    """Cycle-ratio iteration fires: the recurrence found at II 1 lifts II
    straight to its ratio 8, where no positive cycle is left, and one more
    run extracts the critical cycle at II 7 (a binary search takes 7)."""
    unit = _memory_recurrence_unit()
    graph = analyze_loop(unit, MACHINE.vector_length).graph
    with recording() as rec:
        bound = rec_mii(graph, MACHINE)
    assert rec.counter("mii.bf_runs") == 3
    assert bound == 8
    pos = {op.uid: i for i, op in enumerate(unit.body)}
    assert [
        (pos[e.src], pos[e.dst], e.via, e.distance) for e in bound.cycle_edges
    ] == [(0, 1, Via.REGISTER, 0), (1, 2, Via.REGISTER, 0), (2, 0, Via.MEMORY, 1)]
    assert (bound.cycle_delay, bound.cycle_distance) == (8, 1)


def test_res_mii_packs_every_operation_in_one_replay(monkeypatch):
    """The one-replay bound fires: one ``Bins.replay`` call for the whole
    body, not one per operation."""
    calls = []
    replay = Bins.replay

    def counted(bins, steps, marks=None):
        steps = list(steps)
        calls.append(len(steps))
        return replay(bins, steps, marks)

    monkeypatch.setattr(Bins, "replay", counted)
    unit = _memory_recurrence_unit(factor=2)
    assert res_mii(unit, MACHINE) == 2  # 4 memory ops over 2 ls units
    assert calls == [len(unit.body)]
    # The per-operation spec replays once per operation.
    assert mii_spec.res_mii(unit, MACHINE) == 2
    assert calls == [len(unit.body)] + [1] * len(unit.body)


def test_transform_orders_the_components_once(monkeypatch):
    """A factor-2 transform emits a main and a cleanup loop from one
    component order, read once from the dependence analysis."""
    import repro.dependence.analysis as analysis

    calls = []
    ordered_components = analysis.ordered_components

    def counted(dep):
        calls.append(dep)
        return ordered_components(dep)

    monkeypatch.setattr(analysis, "ordered_components", counted)
    dep = _dep("mixed", 7)
    tr = transform_loop(dep, MACHINE, {op.uid: Side.SCALAR for op in dep.loop.body}, 2)
    assert tr.cleanup is not None
    assert calls == [dep]


def test_dependence_builder_builds_lane_subscripts_once_per_memory_op(monkeypatch):
    """The grouped builder fires: each memory operation's lane subscripts
    are built once, although the unrolled recurrence tests more pairs
    than it has memory operations."""
    import repro.dependence.analysis as analysis

    built = []
    lanes = analysis.memory_lane_subscripts

    def counted(op):
        built.append(op.uid)
        return lanes(op)

    unit = _memory_recurrence_unit(factor=2)
    mem_ops = [op for op in unit.body if op.kind.is_memory]
    monkeypatch.setattr(analysis, "memory_lane_subscripts", counted)
    graph = analysis.build_dependence_graph(unit)
    assert sorted(built) == sorted(op.uid for op in mem_ops)
    pairs = sum(
        1
        for i, a in enumerate(mem_ops)
        for b in mem_ops[i:]
        if a.array == b.array and not (a.is_load and b.is_load)
    )
    assert pairs > len(mem_ops)
    monkeypatch.undo()
    assert graph.edges == dependence_spec.build_dependence_graph(unit).edges


def test_slot_search_probes_at_most_twice_per_placement(monkeypatch):
    """The row-mask slot search fires: earliest fit probes ``estart``,
    then takes the first fitting row from one mask or is forced (one
    more probe, after evicting), and a jittered placement probes only
    the row it draws, so a placement makes at most two probes and at
    most one fails.  The unit is 32 ops at II 13 after four
    budget-exhausting attempts; scanning rows one at a time it made
    14,255 probes, 12,197 of them failing."""
    compiled = compile_loop(generate("mixed", 794858457), MACHINE, Strategy.BASELINE)
    [unit] = compiled.units
    loop = unit.transform.loop
    graph = analyze_loop(loop, MACHINE.vector_length).graph
    probes: list[bool] = []  # since the last commit: did each probe fit?
    placements: list[list[bool]] = []
    probe_spec, commit = ModuloReservationTable.probe_spec, ModuloReservationTable.commit

    def counted_probe(mrt, spec, cycle):
        token = probe_spec(mrt, spec, cycle)
        probes.append(token is not None)
        return token

    def counted_commit(mrt, key, token):
        placements.append(probes[:])
        probes.clear()
        commit(mrt, key, token)

    monkeypatch.setattr(ModuloReservationTable, "probe_spec", counted_probe)
    monkeypatch.setattr(ModuloReservationTable, "commit", counted_commit)
    with recording() as rec:
        schedule = modulo_schedule(loop, graph, MACHINE)
    assert (len(loop.body), schedule.ii, schedule.attempts) == (32, 13, 5)
    # Every scheduler placement commits; the final check reads the
    # binding and builds no table.
    assert len(placements) == rec.counter("sched.placements")
    assert max(len(p) for p in placements) <= 2
    assert max(p.count(False) for p in placements) <= 1
    assert not probes


# ----------------------------------------------------------------------
# Evaluation harness: parallel and cached runs


def _loop_signature(evaluator, names):
    return evaluator.loop_metric_rows(names)


def test_parallel_evaluator_matches_serial():
    from repro.evaluation.experiments import Evaluator

    names = ("101.tomcatv",)
    serial = Evaluator()
    parallel = Evaluator(jobs=2)
    assert serial.table2(names) == parallel.table2(names)
    assert _loop_signature(serial, names) == _loop_signature(parallel, names)
    for key, t in serial.telemetry.items():
        assert t.effort == parallel.telemetry[key].effort


def test_pooled_misses_reach_map_in_chunks(monkeypatch):
    """A fan-out of many misses reaches ``pool.map`` in chunks of about
    a quarter of each worker's share, not one task per loop, and
    compiles exactly what a serial run compiles."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.compiler.service import summarize
    from repro.evaluation.experiments import Evaluator

    chunksizes = []
    pool_map = ProcessPoolExecutor.map

    def spy(self, fn, *iterables, **kwargs):
        chunksizes.append(kwargs.get("chunksize", 1))
        return pool_map(self, fn, *iterables, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", spy)
    names = ("101.tomcatv",)
    with Evaluator() as serial, Evaluator(jobs=2) as pooled:
        serial.prewarm(names)
        pooled.prewarm(names)
        misses = sum(t.loops for t in pooled.telemetry.values())
        assert misses == 36
        assert chunksizes == [misses // (4 * 2)]
        for name in names:
            for variant in serial.standard_variants():
                assert [
                    summarize(c) for c in serial.compiled_loops(name, variant)
                ] == [summarize(c) for c in pooled.compiled_loops(name, variant)]
        assert _loop_signature(serial, names) == _loop_signature(pooled, names)


def test_compile_cache_cold_warm_identical(tmp_path):
    from repro.evaluation.experiments import Evaluator

    names = ("101.tomcatv",)
    cache_dir = str(tmp_path / "ccache")
    cold = Evaluator(compile_cache=cache_dir)
    cold_data = cold.table2(names)
    warm = Evaluator(compile_cache=cache_dir)
    warm_data = warm.table2(names)
    assert cold_data == warm_data
    assert _loop_signature(cold, names) == _loop_signature(warm, names)
    for key, t in cold.telemetry.items():
        w = warm.telemetry[key]
        assert t.cache_hits == 0 and t.cache_misses == t.loops
        assert w.cache_hits == w.loops and w.cache_misses == 0
        # Effort counters ride the cached objects: identical warm or cold.
        assert t.effort == w.effort


def test_cache_key_invariant_to_uid_numbering():
    from repro.evaluation.compile_cache import cache_key
    from repro.workloads.spec import build_benchmark

    first = build_benchmark("101.tomcatv").loops[0].loop
    second = build_benchmark("101.tomcatv").loops[0].loop
    assert [op.uid for op in first.body] != [op.uid for op in second.body]
    assert cache_key(first, MACHINE, Strategy.SELECTIVE) == cache_key(
        second, MACHINE, Strategy.SELECTIVE
    )
    assert cache_key(first, MACHINE, Strategy.SELECTIVE) != cache_key(
        first, MACHINE, Strategy.FULL
    )


def test_effort_gate_flags_counter_growth():
    """The ledger gate sees one extra KL probe in one telemetry row."""
    from repro.dashboard import compare_runs
    from repro.ledger import record_from_payloads

    row = {
        "loops": 1,
        "kl_probes": 100,
        "kl_bin_packs": 5,
        "kl_iterations": 2,
        "kl_repacks": 10,
        "kl_pack_steps": 50,
        "sched_attempts": 3,
        "wall_ms": 1.0,
    }

    def record(**changes):
        telemetry = {"b": {"selective": dict(row, **changes)}}
        return record_from_payloads(
            {"table2": {"telemetry": telemetry}}, git_sha="deadbeef"
        )

    assert compare_runs(record(), record(wall_ms=9.0)).clean
    comparison = compare_runs(record(), record(kl_probes=101))
    assert [d.path for d in comparison.exact_deltas()] == [
        "telemetry.b.selective.kl_probes"
    ]
