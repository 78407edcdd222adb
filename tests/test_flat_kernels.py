"""Equivalence of the flat-array hot kernels and their dict references.

The bitmask modulo reservation table, the arrayified Bellman-Ford and
the other per-unit kernels below are pure performance rewrites: this
suite drives them and their original implementations through randomized
inputs and requires identical observable behavior —

* :class:`ModuloReservationTable` (bitmask rows) vs
  :class:`DictModuloReservationTable` (the original per-cell dict, kept
  as the executable specification in ``tests/reservation_spec.py``): same fits verdicts, same
  occupied cells after every action, same eviction sets, across random
  machines (including few-unit machines that force conflicts and
  non-pipelined multi-cycle divides) and random place / force-place /
  remove sequences, and after every action ``free_rows`` equals the rows
  the dict table fits at and ``first_fit`` the first probe that fits;
* :func:`modulo_schedule` (row-mask slot search) vs the per-row scans it
  replaced (``tests/scheduler_spec.py``): the same ``times`` in the same
  dict order, instance binding, II and attempt count (or the same error)
  for every unit of generated loops compiled under all four strategies
  on every ``MACHINE_FACTORIES`` machine and the tight machines, and for
  generated loops with divides on the tight machines; Figure 1's
  selective kernel pins a jittered attempt;
* :func:`_relax_pred` / :func:`_heights` vs reference reimplementations
  of the original dict-based relaxations: same distances, same
  predecessor edges, same witness, same heights, on random dependence
  graphs (zero-distance edges kept acyclic, loop-carried edges
  unrestricted);
* the cycle-ratio :func:`rec_mii` vs the reference binary search: same
  RecMII value, critical cycle, delay and distance on those random graphs
  and on the unit graphs of generated loops compiled under all four
  strategies on every ``MACHINE_FACTORIES`` machine, and, on random
  graphs whose zero-distance edges may form cycles, the same cycle in
  the diagnostic when the body cycles on itself;
* :func:`build_dependence_graph` (memory pairs grouped by array, lane
  subscripts built once per operation) vs the pair-by-pair builder
  (``tests/dependence_spec.py``): the same edges in the same order, and
  :func:`res_mii` (one replay) vs the per-operation bound
  (``tests/mii_spec.py``): the same value, pressure table and bottleneck,
  on generated loops and on every unit and cleanup loop compiled from
  them under all four strategies on every ``MACHINE_FACTORIES`` machine,
  and on generated loops with divides, scalar or vectorized;
* :func:`list_schedule_length` (bitmask busy cycles) vs the original
  dict-and-name list scheduler (``tests/list_schedule_spec.py``): same
  makespan for every unit and cleanup loop of generated loops compiled
  under all four strategies on the ``paper`` and Figure 1 machines, of
  generated loops with divides (which the generator never emits) and of
  random graphs — both covering non-pipelined multi-cycle reservations;
* the closed-form per-file MaxLive vs the per-kernel-cycle count
  (``tests/regalloc_spec.py``) on the same compiled kernels and on random
  lifetimes.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop, build_dependence_graph
from repro.dependence.graph import DepEdge, DependenceGraph, DepKind, Via
from repro.ir.loop import Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import VirtualRegister, const_f64, const_i64
from repro.machine.configs import MACHINE_FACTORIES, figure1_machine, paper_machine
from repro.machine.machine import LatencyTable, MachineDescription
from repro.machine.resources import ResourceClass
from repro.pipeline.list_schedule import list_schedule_length
from repro.pipeline.mii import (
    DependenceCycleError,
    GraphArrays,
    _relax_pred,
    edge_delays,
    rec_mii,
    res_mii,
)
from repro.pipeline.reservation import ModuloReservationTable
from repro.pipeline.scheduler import SchedulingError, _heights, modulo_schedule
from repro.regalloc.allocator import _max_live, kernel_lifetimes
from repro.vectorize.communication import Side
from repro.vectorize.full import full_assignment
from repro.vectorize.transform import transform_loop
from repro.workloads.generator import GENERATORS, generate
from repro.workloads.kernels import dot_product
from tests import (
    dependence_spec,
    list_schedule_spec,
    mii_spec,
    regalloc_spec,
    scheduler_spec,
)
from tests.reservation_spec import DictModuloReservationTable

F64 = ScalarType.F64
I64 = ScalarType.I64


def _tight_machine(slots: int, fp: int, ints: int, ls: int) -> MachineDescription:
    """A deliberately small machine so random placements collide."""
    return MachineDescription(
        name=f"tight-s{slots}f{fp}i{ints}l{ls}",
        resources=(
            ResourceClass("slot", slots),
            ResourceClass("int", ints),
            ResourceClass("fp", fp),
            ResourceClass("ls", ls),
            ResourceClass("br", 1),
        ),
        vector_length=2,
        latencies=LatencyTable(int_div=5, fp_div=7),
    )


MACHINES = [
    paper_machine(),
    figure1_machine(),
    _tight_machine(2, 1, 1, 1),
    _tight_machine(3, 2, 1, 1),
    _tight_machine(1, 1, 1, 1),
]

#: Every machine addressable by name (``toy`` is ``figure1``).
NAMED_MACHINES = [factory() for factory in MACHINE_FACTORIES.values()]

#: (kind, dtype) choices; DIV/SQRT are the non-pipelined multi-cycle
#: reservations (fp_div/int_div busy cycles on the tight machines).
OP_SHAPES = [
    (OpKind.ADD, F64),
    (OpKind.MUL, F64),
    (OpKind.DIV, F64),
    (OpKind.SQRT, F64),
    (OpKind.ADD, I64),
    (OpKind.MUL, I64),
    (OpKind.DIV, I64),
]


def _make_op(shape_idx: int) -> Operation:
    kind, dtype = OP_SHAPES[shape_idx % len(OP_SHAPES)]
    const = const_f64(1.0) if dtype.is_float else const_i64(1)
    srcs = (const,) * kind.arity
    return Operation(
        kind, dtype, dest=VirtualRegister(f"t{id(object())}", dtype), srcs=srcs
    )


action_strategy = st.tuples(
    st.sampled_from(["place", "force", "remove"]),
    st.integers(0, len(OP_SHAPES) - 1),
    st.integers(0, 40),
)


@settings(max_examples=120, deadline=None)
@given(
    machine_idx=st.integers(0, len(MACHINES) - 1),
    ii=st.integers(1, 9),
    actions=st.lists(action_strategy, min_size=1, max_size=25),
)
# A 7-cycle fp divide on a one-fp-unit machine at an II longer than it,
# as long as it and shorter than it.
@example(machine_idx=2, ii=9, actions=[("place", 2, 3), ("place", 0, 0)])
@example(machine_idx=2, ii=7, actions=[("place", 0, 4), ("place", 2, 0)])
@example(machine_idx=2, ii=5, actions=[("place", 2, 0)])
def test_bitset_mrt_matches_dict_mrt(machine_idx, ii, actions):
    machine = MACHINES[machine_idx]
    fast = ModuloReservationTable(machine, ii)
    ref = DictModuloReservationTable(machine, ii)
    names, _ = machine.instance_layout()
    placed: list[Operation] = []
    shapes = [_make_op(shape_idx) for shape_idx in range(len(OP_SHAPES))]

    def spec_of(op):
        return machine.reservation_spec(machine.opcode_info(op))

    for verb, shape_idx, cycle in actions:
        if verb == "remove" and placed:
            op = placed.pop(cycle % len(placed))
            fast.remove(op.uid)
            ref.remove(op.uid)
        elif verb == "place":
            op = _make_op(shape_idx)
            token = fast.probe_spec(spec_of(op), cycle)
            assert (token is not None) == ref.fits(op, cycle), (op, cycle)
            if token is not None:
                fast.commit(op.uid, token)
                ref.place(op, cycle)
                placed.append(op)
        else:  # force placement, as the scheduler's forced path does it
            op = _make_op(shape_idx)
            spec = spec_of(op)
            evicted = fast.conflicting_spec(spec, cycle)
            assert evicted == ref.conflicting_holders(op, cycle), (op, cycle)
            for key in evicted:
                fast.remove(key)
            token = fast.probe_spec(spec, cycle)
            try:
                ref.place_evicting(op, cycle)
            except ValueError:
                assert token is None, (op, cycle)
            else:
                assert token is not None, (op, cycle)
                fast.commit(op.uid, token)
                placed = [p for p in placed if p.uid not in evicted]
                placed.append(op)
        # After every action the full observable state must agree: the
        # same cells busy with the same holders, the same holder set.
        cells = {
            (names[i], row): key
            for i, rows in enumerate(fast.owner)
            for row, key in rows.items()
        }
        assert cells == ref.occupied_cells()
        assert set(fast.held) == set(ref.held)
        # The row masks answer every row as the reference does one by
        # one (divides shorter than II, as long and longer included), and
        # the first fit from ``cycle`` is the first probe that succeeds.
        for op in shapes:
            spec = spec_of(op)
            rows = [r for r in range(ii) if ref.fits(op, r)]
            assert fast.free_rows(spec) == sum(1 << r for r in rows), op
            fits = [t for t in range(cycle, cycle + ii) if t % ii in rows]
            expected = (fits[0], fast.probe_spec(spec, fits[0])) if fits else None
            assert fast.first_fit(spec, cycle) == expected, (op, cycle)


# ----------------------------------------------------------------------
# Bellman-Ford references: the original dict implementations, verbatim.


def _relax_ref(graph, machine, ii, delays):
    nodes = graph.node_ids()
    dist = {n: 0 for n in nodes}
    pred = {}
    weights = [(e, delays[e] - ii * e.distance) for e in graph.edges]
    witness = None
    for _ in range(len(nodes)):
        changed = False
        for e, w in weights:
            if dist[e.src] + w > dist[e.dst]:
                dist[e.dst] = dist[e.src] + w
                pred[e.dst] = e
                changed = True
                witness = e.dst
        if not changed:
            return dist, pred, None
    return dist, pred, witness


def _relax_view(graph, machine, ii):
    """The flat predecessor-tracking relaxation read back by uid, in the
    ``(dist, pred, witness)`` shape of :func:`_relax_ref`."""
    arrays = GraphArrays(graph, machine)
    pred_idx, witness = _relax_pred(arrays, ii)
    uids = arrays.uids
    dist = dict(zip(uids, arrays._dist))
    pred = {uids[d]: arrays.edges[j] for d, j in enumerate(pred_idx) if j >= 0}
    return dist, pred, (None if witness < 0 else uids[witness])


class ZeroDistanceCycle(Exception):
    def __init__(self, cycle):
        super().__init__(cycle)
        self.cycle = tuple(cycle)


def _rec_mii_ref(graph, machine):
    if not graph.edges:
        return 1, (), 0, 0
    delays = edge_delays(graph, machine)
    max_delay = max(delays[e] for e in graph.edges)
    hi = max(1, max_delay * len(graph.ops))

    def positive(ii):
        return _relax_ref(graph, machine, ii, delays)[2] is not None

    def extract(ii):
        _, pred, witness = _relax_ref(graph, machine, ii, delays)
        if witness is None:
            return []
        node = witness
        for _ in range(len(graph.ops)):
            node = pred[node].src
        cycle, cur = [], node
        for _ in range(len(graph.ops) + 1):
            edge = pred[cur]
            cycle.append(edge)
            cur = edge.src
            if cur == node:
                break
        cycle.reverse()
        return cycle

    if positive(hi):
        # Only a zero-distance cycle is still positive at hi.
        raise ZeroDistanceCycle(extract(hi))
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if positive(mid):
            lo = mid + 1
        else:
            hi = mid
    if lo <= 1:
        return 1, (), 0, 0
    cycle = extract(lo - 1)
    return (
        lo,
        tuple(cycle),
        sum(delays[e] for e in cycle),
        sum(e.distance for e in cycle),
    )


def _heights_ref(loop, graph, machine, ii, delays):
    height = {op.uid: 0 for op in loop.body}
    for _ in range(len(loop.body)):
        changed = False
        for edge in graph.edges:
            w = delays[edge] - ii * edge.distance
            candidate = height[edge.dst] + w
            if candidate > height[edge.src]:
                height[edge.src] = candidate
                changed = True
        if not changed:
            break
    return height


@st.composite
def graph_strategy(draw, zero_distance_cycles=False):
    """A random dependence graph whose zero-distance edges are acyclic
    (forward-only), with arbitrary loop-carried edges on top; with
    ``zero_distance_cycles``, zero-distance edges may also point back."""
    n = draw(st.integers(2, 9))
    ops = [_make_op(draw(st.integers(0, len(OP_SHAPES) - 1))) for _ in range(n)]
    graph = DependenceGraph()
    for op in ops:
        graph.add_op(op)
    kinds = [DepKind.FLOW, DepKind.ANTI, DepKind.OUTPUT]
    n_edges = draw(st.integers(0, 3 * n))
    for _ in range(n_edges):
        distance = draw(st.integers(0, 3))
        if distance == 0 and not zero_distance_cycles:
            src = draw(st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
        else:
            src = draw(st.integers(0, n - 1))
            dst = draw(st.integers(0, n - 1))
        graph.add_edge(
            DepEdge(
                src=ops[src].uid,
                dst=ops[dst].uid,
                kind=draw(st.sampled_from(kinds)),
                via=Via.REGISTER,
                distance=distance,
            )
        )
    return graph


@settings(max_examples=100, deadline=None)
@given(
    graph=graph_strategy(),
    machine_idx=st.integers(0, len(MACHINES) - 1),
    ii=st.integers(1, 12),
)
def test_flat_relax_matches_reference(graph, machine_idx, ii):
    machine = MACHINES[machine_idx]
    delays = edge_delays(graph, machine)
    ref_dist, ref_pred, ref_witness = _relax_ref(graph, machine, ii, delays)
    dist, pred, witness = _relax_view(graph, machine, ii)
    assert dist == ref_dist
    assert witness == ref_witness
    assert pred == ref_pred


loop_strategy = st.builds(
    generate,
    archetype=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 50_000),
)


@st.composite
def unit_graphs_strategy(draw):
    """The dependence graph of every unit of a generated loop compiled
    under all four strategies for one named machine, each with that
    machine."""
    machine = draw(st.sampled_from(NAMED_MACHINES))
    loop = draw(loop_strategy)
    return [
        (analyze_loop(unit.transform.loop, machine.vector_length).graph, machine)
        for strategy in Strategy
        for unit in compile_loop(loop, machine, strategy).units
    ]


def random_graphs_strategy(zero_distance_cycles):
    return st.tuples(
        graph_strategy(zero_distance_cycles=zero_distance_cycles),
        st.sampled_from(MACHINES),
    ).map(lambda case: [case])


@settings(max_examples=200, deadline=None)
@given(
    cases=st.one_of(
        random_graphs_strategy(False),
        random_graphs_strategy(True),
        unit_graphs_strategy(),
    )
)
def test_flat_rec_mii_matches_reference(cases):
    for graph, machine in cases:
        try:
            ref_value, ref_cycle, ref_delay, ref_distance = _rec_mii_ref(graph, machine)
        except ZeroDistanceCycle as ref:
            with pytest.raises(DependenceCycleError) as exc:
                rec_mii(graph, machine)
            assert exc.value.cycle_edges == ref.cycle
            continue
        bound = rec_mii(graph, machine)
        assert int(bound) == ref_value
        assert bound.cycle_edges == ref_cycle
        assert bound.cycle_delay == ref_delay
        assert bound.cycle_distance == ref_distance


@settings(max_examples=40, deadline=None)
@given(loop=loop_strategy, ii=st.integers(1, 8))
def test_flat_heights_match_reference(loop, ii):
    machine = paper_machine()
    dep = analyze_loop(loop, machine.vector_length)
    delays = edge_delays(dep.graph, machine)
    ref = _heights_ref(loop, dep.graph, machine, ii, delays)
    assert _heights(loop, dep.graph, machine, ii) == ref


# ----------------------------------------------------------------------
# Cleanup list scheduling and MaxLive: the flat kernels vs their specs.

compiled_strategy = st.builds(
    compile_loop,
    loop_strategy,
    st.sampled_from([paper_machine(), figure1_machine()]),
    st.sampled_from(list(Strategy)),
)


def _assert_list_schedule_matches_spec(loop, graph, machine):
    assert list_schedule_length(
        loop, graph, machine
    ) == list_schedule_spec.list_schedule_length(loop, graph, machine)


@settings(max_examples=40, deadline=None)
@given(compiled=compiled_strategy)
def test_flat_list_schedule_matches_spec(compiled):
    machine = compiled.machine
    for unit in compiled.units:
        for loop in (unit.transform.loop, unit.transform.cleanup):
            if loop is not None:
                graph = analyze_loop(loop, machine.vector_length).graph
                _assert_list_schedule_matches_spec(loop, graph, machine)


@st.composite
def divided_loop_strategy(draw):
    """A generated loop with up to two of its adds and multiplies turned
    into divides, whose units stay busy for many cycles."""
    loop = draw(loop_strategy)
    arith = [
        i for i, op in enumerate(loop.body) if op.kind in (OpKind.ADD, OpKind.MUL)
    ]
    picks = draw(st.sets(st.sampled_from(arith), max_size=2)) if arith else set()
    return loop.with_body(
        tuple(
            replace(op, kind=OpKind.DIV) if i in picks else op
            for i, op in enumerate(loop.body)
        )
    )


@settings(max_examples=40, deadline=None)
@given(loop=divided_loop_strategy(), vectorize=st.booleans())
def test_flat_list_schedule_matches_spec_with_divides(loop, vectorize):
    # Transformed, not compiled: on the paper machine a divide holds its
    # unit for 32 cycles, which many unrolled kernels cannot modulo
    # schedule, but every body still has a list schedule.
    machine = paper_machine()
    dep = analyze_loop(loop, machine.vector_length)
    if vectorize:
        assignment = full_assignment(dep)
    else:
        assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, machine, assignment, machine.vector_length)
    for body in (tr.loop, tr.cleanup):
        graph = analyze_loop(body, machine.vector_length).graph
        _assert_list_schedule_matches_spec(body, graph, machine)


@settings(max_examples=100, deadline=None)
@given(graph=graph_strategy(), machine_idx=st.integers(0, len(MACHINES) - 1))
def test_flat_list_schedule_matches_spec_on_random_graphs(graph, machine_idx):
    loop = Loop("random", tuple(graph.ops.values()))
    _assert_list_schedule_matches_spec(loop, graph, MACHINES[machine_idx])


# ----------------------------------------------------------------------
# Dependence graphs and ResMII: the grouped builder and the one-replay
# bound vs their specs.


def _assert_unit_facts_match_specs(loop, machine, trip_count=None):
    graph = build_dependence_graph(loop, trip_count)
    spec = dependence_spec.build_dependence_graph(loop, trip_count)
    assert graph.edges == spec.edges
    res, ref = res_mii(loop, machine), mii_spec.res_mii(loop, machine)
    assert int(res) == int(ref)
    assert list(res.pressure.items()) == list(ref.pressure.items())
    assert res.bottleneck == ref.bottleneck


@settings(max_examples=25, deadline=None)
@given(loop=loop_strategy, trip_count=st.one_of(st.none(), st.integers(1, 300)))
def test_grouped_builder_and_one_replay_res_mii_match_specs(loop, trip_count):
    for machine in NAMED_MACHINES:
        _assert_unit_facts_match_specs(loop, machine, trip_count)
        for strategy in Strategy:
            for unit in compile_loop(loop, machine, strategy).units:
                for body in (unit.transform.loop, unit.transform.cleanup):
                    if body is not None:
                        _assert_unit_facts_match_specs(body, machine)


@settings(max_examples=40, deadline=None)
@given(loop=divided_loop_strategy(), vectorize=st.booleans())
def test_one_replay_res_mii_matches_spec_with_divides(loop, vectorize):
    # A divide's multi-cycle reservation is where the packing order
    # shows in the pressure table.  Transformed, not compiled, as in the
    # list-schedule test above.
    machine = paper_machine()
    dep = analyze_loop(loop, machine.vector_length)
    if vectorize:
        assignment = full_assignment(dep)
    else:
        assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, machine, assignment, machine.vector_length)
    for body in (loop, tr.loop, tr.cleanup):
        _assert_unit_facts_match_specs(body, machine)


@settings(max_examples=40, deadline=None)
@given(compiled=compiled_strategy)
def test_closed_form_max_live_matches_spec(compiled):
    machine = compiled.machine
    for unit in compiled.units:
        graph = analyze_loop(unit.transform.loop, machine.vector_length).graph
        lifetimes = kernel_lifetimes(unit.schedule, graph)
        assert _max_live(lifetimes, unit.ii) == regalloc_spec.max_live(
            lifetimes, unit.ii
        )


REGISTER_TYPES = [F64, I64, ScalarType.PRED, VectorType(F64, 2), VectorType(I64, 2)]


@settings(max_examples=200, deadline=None)
@given(
    ii=st.integers(1, 12),
    spans=st.lists(
        st.tuples(
            st.sampled_from(REGISTER_TYPES),
            st.integers(0, 60),
            st.integers(-2, 40),
        ),
        max_size=12,
    ),
)
def test_closed_form_max_live_matches_spec_on_random_lifetimes(ii, spans):
    lifetimes = {
        VirtualRegister(f"v{k}", ty): (start, start + length)
        for k, (ty, start, length) in enumerate(spans)
    }
    assert _max_live(lifetimes, ii) == regalloc_spec.max_live(lifetimes, ii)


# ----------------------------------------------------------------------
# Modulo scheduling: the row-mask slot search vs the per-row scans.

TIGHT_MACHINES = MACHINES[2:]


def _schedule_outcome(schedule, loop, graph, machine):
    """``times`` as (uid, cycle) pairs in dict order, the instance
    binding, II and attempts, or the error a scheduler raised."""
    try:
        result = schedule(loop, graph, machine)
    except (SchedulingError, ValueError) as exc:
        return type(exc), str(exc)
    return list(result.times.items()), result.instances, result.ii, result.attempts


def _assert_scheduler_matches_spec(loop, machine) -> int:
    """Schedule ``loop`` with :func:`modulo_schedule` and with the
    per-row scans of ``tests/scheduler_spec.py``; the outcomes must be
    equal.  Returns 1 if a jittered attempt was reached, else 0."""
    graph = analyze_loop(loop, machine.vector_length).graph
    got = _schedule_outcome(modulo_schedule, loop, graph, machine)
    spec = _schedule_outcome(scheduler_spec.modulo_schedule, loop, graph, machine)
    assert got == spec, loop.name
    return int(len(got) == 4 and got[3] > 1)


def _assert_units_match_spec(loop, machine) -> int:
    """Every unit of ``loop`` compiled under the four strategies (the
    ones the machine supports: the tight machines have no vector unit),
    plus the source body itself; returns how many reached a jittered
    attempt."""
    jittered = _assert_scheduler_matches_spec(loop, machine)
    for strategy in Strategy:
        try:
            compiled = compile_loop(loop, machine, strategy)
        except ValueError:
            assert not machine.supports_vectors
            continue
        for unit in compiled.units:
            jittered += _assert_scheduler_matches_spec(unit.transform.loop, machine)
    return jittered


@settings(max_examples=40, deadline=None)
@given(
    loop=loop_strategy,
    machine=st.sampled_from(NAMED_MACHINES + TIGHT_MACHINES),
)
def test_modulo_schedule_matches_spec(loop, machine):
    _assert_units_match_spec(loop, machine)


@settings(max_examples=30, deadline=None)
@given(loop=divided_loop_strategy(), machine=st.sampled_from(TIGHT_MACHINES))
def test_modulo_schedule_matches_spec_with_divides(loop, machine):
    # 5- and 7-cycle divides on classes of one or two units: the
    # multi-cycle row masks, and forced placements that evict a
    # divide's whole span.
    _assert_scheduler_matches_spec(loop, machine)


def test_modulo_schedule_spec_covers_jittered_attempts():
    # Figure 1's selective II 1.0 takes a second, jittered attempt.
    assert _assert_units_match_spec(dot_product(), figure1_machine()) >= 1
