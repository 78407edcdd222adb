"""Property-based invariants across the whole pipeline.

These hypothesis tests exercise the system on randomly generated loops
and check the structural guarantees every component promises:

* partition cost never exceeds the all-scalar cost;
* schedules respect every dependence edge and never oversubscribe a
  resource;
* the final II is bounded below by ResMII and RecMII;
* transformation conserves per-original-iteration work for scalar code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.findings import Severity
from repro.check.schedule_check import check_schedule
from repro.dependence.analysis import analyze_loop
from repro.machine.configs import paper_machine
from repro.pipeline.mii import edge_delay
from repro.pipeline.scheduler import modulo_schedule
from repro.vectorize.communication import Side
from repro.vectorize.partition import partition_operations
from repro.vectorize.transform import transform_loop
from repro.workloads.generator import GENERATORS, generate

MACHINE = paper_machine()

loop_strategy = st.builds(
    generate,
    archetype=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 100_000),
)


@settings(max_examples=25, deadline=None)
@given(loop=loop_strategy)
def test_partition_cost_never_exceeds_scalar(loop):
    dep = analyze_loop(loop, 2)
    result = partition_operations(dep, MACHINE)
    assert result.cost <= result.scalar_cost
    assert result.history == sorted(result.history, reverse=True)


@settings(max_examples=25, deadline=None)
@given(loop=loop_strategy)
def test_partition_respects_vectorizability(loop):
    dep = analyze_loop(loop, 2)
    result = partition_operations(dep, MACHINE)
    for op in loop.body:
        if result.assignment[op.uid] is Side.VECTOR:
            assert dep.is_vectorizable(op)


@settings(max_examples=15, deadline=None)
@given(loop=loop_strategy, factor=st.sampled_from([1, 2]))
def test_schedule_feasibility(loop, factor):
    """Every produced schedule satisfies all dependence edges and its
    reservations can be bound to the machine's instances — checked by
    the independent schedule checker, not trusting the scheduler's own
    bookkeeping."""
    dep = analyze_loop(loop, 2)
    assignment = {op.uid: Side.SCALAR for op in loop.body}
    tr = transform_loop(dep, MACHINE, assignment, factor)
    dep2 = analyze_loop(tr.loop, 2)
    schedule = modulo_schedule(tr.loop, dep2.graph, MACHINE)

    for edge in dep2.graph.edges:
        lhs = schedule.times[edge.dst] + schedule.ii * edge.distance
        rhs = schedule.times[edge.src] + edge_delay(edge, dep2.graph, MACHINE)
        assert lhs >= rhs

    errors = [f for f in check_schedule(schedule) if f.severity is Severity.ERROR]
    assert errors == []

    assert schedule.ii >= max(schedule.res_mii, schedule.rec_mii)
    assert all(t >= 0 for t in schedule.times.values())


@settings(max_examples=15, deadline=None)
@given(loop=loop_strategy)
def test_selective_transform_work_conservation(loop):
    """The transformed loop performs exactly VL copies of each scalar-side
    operation and one vector op per vector-side operation (plus transfers,
    merges, and overhead)."""
    dep = analyze_loop(loop, 2)
    result = partition_operations(dep, MACHINE)
    tr = transform_loop(dep, MACHINE, result.assignment, 2)
    by_origin: dict[int, int] = {}
    for op in tr.loop.body:
        if op.origin is not None:
            by_origin[op.origin] = by_origin.get(op.origin, 0) + 1
    for op in loop.body:
        side = result.assignment[op.uid]
        expected = 1 if side is Side.VECTOR else 2
        if side is Side.VECTOR and op.kind.is_memory:
            # misaligned vector memory refs carry one merge with them
            assert by_origin[op.uid] in (1, 2)
        else:
            assert by_origin[op.uid] == expected


@settings(max_examples=15, deadline=None)
@given(loop=loop_strategy)
def test_transform_scratch_arrays_match_transfer_count(loop):
    dep = analyze_loop(loop, 2)
    result = partition_operations(dep, MACHINE)
    tr = transform_loop(dep, MACHINE, result.assignment, 2)
    scratch = [a for a in tr.loop.arrays if a.startswith("xfer.")]
    assert len(scratch) == tr.n_transfers
