"""Tests for selective vectorization partitioning (Figure 2)."""

import pytest

from repro.dependence.analysis import analyze_loop
from repro.ir.builder import LoopBuilder
from repro.ir.values import const_f64
from repro.machine.configs import scalar_only_machine
from repro.observability.recorder import recording
from repro.vectorize.communication import Side, dataflow_of, transfers_for
from repro.vectorize.partition import PartitionConfig, partition_operations


def fp_chain_loop(length=8):
    b = LoopBuilder("chain")
    b.array("x", dim_sizes=(2048,))
    b.array("z", dim_sizes=(2048,))
    v = b.load("x", b.idx(), name="v")
    acc = v
    for k in range(length):
        acc = b.add(b.mul(acc, acc, name=f"m{k}"), v, name=f"a{k}")
    b.store("z", b.idx(), acc)
    return b.build()


class TestFigure1:
    """The motivating example: the partitioner must reproduce the paper's
    hand schedule on the toy machine."""

    def test_selective_cost_reaches_one_per_iteration(self, dot_loop, toy):
        dep = analyze_loop(dot_loop, 2)
        result = partition_operations(dep, toy)
        assert result.cost == 2  # per 2 original iterations

    def test_partition_shape(self, dot_loop, toy):
        dep = analyze_loop(dot_loop, 2)
        result = partition_operations(dep, toy)
        sides = [result.assignment[op.uid] for op in dot_loop.body]
        # The reduction add must stay scalar; exactly 2 of {load, load, mul}
        # are vectorized (one load plus the multiply).
        assert sides[3] is Side.SCALAR
        assert sum(1 for s in sides[:3] if s is Side.VECTOR) == 2

    def test_scalar_cost_is_unrolled_baseline(self, dot_loop, toy):
        dep = analyze_loop(dot_loop, 2)
        result = partition_operations(dep, toy)
        assert result.scalar_cost == 3  # 8 scalar ops over 3 slots


class TestAlgorithmBehavior:
    def test_never_worse_than_scalar(self, dot_loop, saxpy_loop, stream_loop, paper):
        for loop in (dot_loop, saxpy_loop, stream_loop, fp_chain_loop()):
            dep = analyze_loop(loop, 2)
            result = partition_operations(dep, paper)
            assert result.cost <= result.scalar_cost

    def test_history_is_monotone(self, paper):
        dep = analyze_loop(fp_chain_loop(), 2)
        result = partition_operations(dep, paper)
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_converges(self, paper):
        dep = analyze_loop(fp_chain_loop(10), 2)
        result = partition_operations(dep, paper)
        assert result.iterations >= 1
        assert result.history[-1] == result.cost

    def test_max_iterations_limits_work(self, paper):
        dep = analyze_loop(fp_chain_loop(10), 2)
        limited = partition_operations(
            dep, paper, PartitionConfig(max_iterations=1)
        )
        assert limited.iterations <= 1

    def test_fp_chain_halves_cost(self, paper):
        """A long fp chain is fp-bound when scalar; splitting it across the
        fp units and the vector unit roughly halves the ResMII."""
        dep = analyze_loop(fp_chain_loop(8), 2)
        result = partition_operations(dep, paper)
        assert result.scalar_cost >= 16
        assert result.cost <= result.scalar_cost * 0.6

    def test_no_vector_unit_keeps_all_scalar(self, dot_loop):
        machine = scalar_only_machine()
        dep = analyze_loop(dot_loop, 2)
        result = partition_operations(dep, machine)
        assert not result.any_vectorized
        assert result.iterations == 0

    def test_nothing_vectorizable_short_circuits(self, paper):
        b = LoopBuilder("serial")
        b.array("y", dim_sizes=(2048,))
        t = b.load("y", b.idx(offset=0), name="t")
        u = b.mul(t, const_f64(0.5), name="u")
        b.store("y", b.idx(offset=1), u)
        dep = analyze_loop(b.build(), 2)
        result = partition_operations(dep, paper)
        assert not result.any_vectorized

    def test_only_vectorizable_ops_assigned_vector(self, dot_loop, paper, toy):
        for machine in (paper, toy):
            dep = analyze_loop(dot_loop, 2)
            result = partition_operations(dep, machine)
            for op in dot_loop.body:
                if result.assignment[op.uid] is Side.VECTOR:
                    assert dep.is_vectorizable(op)

    def test_vectorized_property(self, toy, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        result = partition_operations(dep, toy)
        assert result.vectorized == {
            uid for uid, s in result.assignment.items() if s is Side.VECTOR
        }


class TestCommunicationAwareness:
    def test_communication_blind_config(self, paper):
        """With communication ignored the partitioner happily creates
        transfer-heavy partitions; with it considered the final cost must
        account for them."""
        dep = analyze_loop(fp_chain_loop(8), 2)
        aware = partition_operations(dep, paper)
        blind = partition_operations(
            dep, paper, PartitionConfig(account_communication=False)
        )
        # The blind cost is an underestimate of what its assignment truly
        # costs; re-binning the blind assignment with communication included
        # can only be worse or equal to the aware result.
        model = __import__(
            "repro.vectorize.partition", fromlist=["PartitionCostModel"]
        ).PartitionCostModel(dep, paper, PartitionConfig())
        blind_true_cost = model.bin_pack(blind.assignment).high_water_mark()
        assert aware.cost <= blind_true_cost

    def test_transfers_counted_once_per_operand(self, paper):
        """One producer feeding two scalar consumers across the boundary
        transfers once."""
        b = LoopBuilder("fanout")
        b.array("x", dim_sizes=(2048,))
        b.array("y", dim_sizes=(2048,))
        b.array("z", dim_sizes=(2048,))
        v = b.load("x", b.idx(), name="v")
        p = b.mul(v, v, name="p")
        q = b.add(p, v, name="q")
        r = b.sub(p, v, name="r")
        b.store("y", b.idx(), q)
        b.store("z", b.idx(), r)
        loop = b.build()
        dep = analyze_loop(loop, 2)
        dataflow = dataflow_of(dep)
        assignment = {op.uid: Side.SCALAR for op in loop.body}
        p_op = loop.body[1]
        assignment[p_op.uid] = Side.VECTOR
        transfers = transfers_for(dataflow, assignment)
        keys = [t.key for t in transfers]
        assert keys.count(p_op.uid) == 1


# Per loop: the partition cost and, per body position, the placement
# remark's reason and flip cost (None where no flip is probed).
CC, VP, NB, NV, RP = (
    "communication-cost",
    "vector-profitable",
    "no-benefit",
    "not-vectorizable",
    "resource-pressure",
)
PLACEMENT_REMARKS = {
    "093.nasa7.L0": (2, [(CC, 3), (CC, 3)]),
    "093.nasa7.L8": (
        8,
        [(VP, 9), (VP, 10), (VP, 10), (VP, 9), (VP, 9), (CC, 10), (CC, 11),
         (CC, 11), (CC, 10), (CC, 11), (CC, 13), (CC, 11), (CC, 10), (CC, 9)],
    ),
    "093.nasa7.L9": (
        8,
        [(VP, 9), (VP, 9), (VP, 9), (VP, 9), (NB, 8), (CC, 11), (CC, 11),
         (CC, 13), (CC, 13), (CC, 10), (CC, 11), (CC, 13), (CC, 9)],
    ),
    "093.nasa7.L11": (
        13,
        [(NV, None), (VP, 15), (VP, 16), (VP, 14), (NV, None), (NV, None),
         (CC, 16), (CC, 16), (CC, 18), (CC, 16), (CC, 18), (NV, None),
         (NV, None), (CC, 16), (CC, 16), (CC, 18), (NV, None), (NV, None),
         (CC, 16), (CC, 16), (CC, 18), (CC, 16), (CC, 18), (NV, None),
         (NV, None), (NV, None)],
    ),
    "101.tomcatv.L1": (
        4,
        [(VP, 6), (VP, 6), (VP, 8), (VP, 8), (VP, 8), (VP, 5), (RP, 5),
         (RP, 7), (RP, 8), (CC, 5)],
    ),
}


@pytest.mark.parametrize("name", sorted(PLACEMENT_REMARKS))
def test_placement_remarks_are_pinned(name, paper):
    """Each operation's placement remark: the reason, attributed by
    re-probing the flip with communication or alignment blinded, and the
    flip's probed cost."""
    from repro.workloads.spec import build_benchmark

    benchmark, _ = name.rsplit(".", 1)
    (loop,) = [w.loop for w in build_benchmark(benchmark).loops if w.loop.name == name]
    dep = analyze_loop(loop, paper.vector_length)
    with recording() as rec:
        result = partition_operations(dep, paper)
    position = {op.uid: i for i, op in enumerate(loop.body)}
    remarks = sorted(
        (position[r.data["op"]], r.reason, r.data.get("flip_cost"))
        for r in rec.remarks.select(pass_name="partition")
    )
    cost, expected = PLACEMENT_REMARKS[name]
    assert result.cost == cost
    assert remarks == [(i, *row) for i, row in enumerate(expected)]
