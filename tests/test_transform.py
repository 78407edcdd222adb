"""Tests for the loop transformation engine (Section 3.3)."""

import pytest

from repro.dependence.analysis import analyze_loop, ordered_components
from repro.ir.builder import LoopBuilder
from repro.ir.operations import OpKind
from repro.ir.types import VectorType
from repro.ir.values import const_f64
from repro.ir.verifier import verify_loop
from repro.machine.configs import aligned_machine
from repro.vectorize.communication import Side
from repro.vectorize.full import full_assignment
from repro.vectorize.transform import SCRATCH_PREFIX, transform_loop


def all_scalar(loop):
    return {op.uid: Side.SCALAR for op in loop.body}


def kinds(loop):
    return [op.mnemonic() for op in loop.body]


class TestBaselineUnrolling:
    def test_factor_two_replicates_body(self, stream_loop, paper):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, paper, all_scalar(stream_loop), 2)
        real_ops = [op for op in tr.loop.body if not op.kind.is_overhead]
        assert len(real_ops) == 2 * len(stream_loop.body)
        assert tr.loop.increment == 2
        assert tr.cleanup is not None
        verify_loop(tr.loop)

    def test_factor_one_adds_only_overhead(self, stream_loop, paper):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, paper, all_scalar(stream_loop), 1)
        overhead = [op for op in tr.loop.body if op.kind.is_overhead]
        # 3 arrays -> 3 bumps, + ivinc + cbr
        assert len(overhead) == 5
        assert tr.cleanup is None

    def test_toy_machine_has_no_overhead_ops(self, stream_loop, toy):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, toy, all_scalar(stream_loop), 2)
        assert not any(op.kind.is_overhead for op in tr.loop.body)

    def test_subscripts_folded_into_j_space(self, stream_loop, paper):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, paper, all_scalar(stream_loop), 2)
        loads = [op for op in tr.loop.body if op.is_load]
        inner = sorted(
            (op.subscript.innermost.coeff, op.subscript.innermost.offset)
            for op in loads
        )
        assert inner == [(2, 0), (2, 0), (2, 1), (2, 1)]

    def test_reduction_chain_serializes_across_lanes(self, dot_loop, paper):
        dep = analyze_loop(dot_loop, 2)
        tr = transform_loop(dep, paper, all_scalar(dot_loop), 2)
        adds = [op for op in tr.loop.body if op.kind is OpKind.ADD]
        # lane 1 add must consume lane 0's result
        assert adds[1].srcs[0] == adds[0].dest
        carried = [c for c in tr.loop.carried if c.entry.name == "s"]
        assert carried[0].exit == adds[1].dest


class TestVectorEmission:
    def test_full_vectorization_stream(self, stream_loop, paper):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, paper, full_assignment(dep), 2)
        assert tr.n_vector_ops == 4
        assert tr.n_transfers == 0
        vec_ops = [op for op in tr.loop.body if op.is_vector]
        assert all(op.kind in (OpKind.LOAD, OpKind.STORE, OpKind.ADD, OpKind.MERGE)
                   for op in vec_ops)

    def test_misaligned_loads_get_merges_and_carried_chunk(self, stream_loop, paper):
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, paper, full_assignment(dep), 2)
        merges = [op for op in tr.loop.body if op.kind is OpKind.MERGE]
        assert len(merges) == 3  # two loads + one store
        assert tr.n_merges == 3
        # each merge carries the previous iteration's aligned chunk
        vec_carried = [
            c for c in tr.loop.carried if isinstance(c.entry.type, VectorType)
        ]
        assert len(vec_carried) == 3

    def test_aligned_machine_emits_no_merges(self, stream_loop):
        machine = aligned_machine()
        dep = analyze_loop(stream_loop, 2)
        tr = transform_loop(dep, machine, full_assignment(dep), 2)
        assert tr.n_merges == 0

    def test_through_memory_transfers_use_scratch(self, dot_loop, paper):
        dep = analyze_loop(dot_loop, 2)
        assignment = all_scalar(dot_loop)
        # vectorize both loads and the multiply; the add stays scalar
        for op in dot_loop.body[:3]:
            assignment[op.uid] = Side.VECTOR
        tr = transform_loop(dep, paper, assignment, 2)
        assert tr.n_transfers == 1
        scratch = [a for a in tr.loop.arrays if a.startswith(SCRATCH_PREFIX)]
        assert len(scratch) == 1
        # vector store + 2 scalar loads on the scratch array
        ops_on_scratch = [op for op in tr.loop.body if op.array == scratch[0]]
        assert [op.mnemonic() for op in ops_on_scratch] == ["vstore", "load", "load"]

    def test_free_comm_machine_uses_pack_extract(self, dot_loop, toy):
        dep = analyze_loop(dot_loop, 2)
        assignment = all_scalar(dot_loop)
        for op in dot_loop.body[:3]:
            assignment[op.uid] = Side.VECTOR
        tr = transform_loop(dep, toy, assignment, 2)
        assert OpKind.EXTRACT in {op.kind for op in tr.loop.body}
        assert not any(a.startswith(SCRATCH_PREFIX) for a in tr.loop.arrays)

    def test_invariant_operand_splat_in_preheader(self, saxpy_loop, paper):
        dep = analyze_loop(saxpy_loop, 2)
        tr = transform_loop(dep, paper, full_assignment(dep), 2)
        splats = [op for op in tr.loop.preheader if op.kind is OpKind.COPY]
        assert len(splats) == 1
        assert splats[0].is_vector

    def test_rejects_vectorizing_unvectorizable(self, dot_loop, paper):
        dep = analyze_loop(dot_loop, 2)
        assignment = all_scalar(dot_loop)
        assignment[dot_loop.body[-1].uid] = Side.VECTOR  # the reduction add
        with pytest.raises(ValueError):
            transform_loop(dep, paper, assignment, 2)

    def test_rejects_wrong_factor_for_vector(self, dot_loop, paper):
        dep = analyze_loop(dot_loop, 2)
        assignment = all_scalar(dot_loop)
        assignment[dot_loop.body[0].uid] = Side.VECTOR
        with pytest.raises(ValueError):
            transform_loop(dep, paper, assignment, 3)

    def test_liveout_mapping_scalar(self, dot_loop, paper):
        dep = analyze_loop(dot_loop, 2)
        tr = transform_loop(dep, paper, all_scalar(dot_loop), 2)
        spec = tr.liveout_map["s2"]
        assert spec.register.name == "s2.l1"
        assert spec.lane is None

    def test_liveout_mapping_vector_lane(self, stream_loop, paper):
        b = LoopBuilder("lo")
        b.array("x", dim_sizes=(2048,))
        v = b.load("x", b.idx(), name="v")
        w = b.mul(v, const_f64(2.0), name="w")
        b.array("z", dim_sizes=(2048,))
        b.store("z", b.idx(), w)
        b.live_out(w)
        loop = b.build()
        dep = analyze_loop(loop, 2)
        tr = transform_loop(dep, paper, full_assignment(dep), 2)
        spec = tr.liveout_map["w"]
        assert spec.lane == 1
        assert isinstance(spec.register.type, VectorType)


class TestComponentOrdering:
    def test_topological_sources_first(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        comps = ordered_components(dep)
        flat = [uid for comp in comps for uid in comp]
        uids = [op.uid for op in dot_loop.body]
        # loads before mul before add
        assert flat.index(uids[2]) > flat.index(uids[0])
        assert flat.index(uids[3]) > flat.index(uids[2])

    def test_forward_carried_dependence_ordering(self, paper):
        """store a[i] / load a[i-1]: the store's component must be emitted
        first so lane 1's load sees lane 0's store within an iteration."""
        b = LoopBuilder("fwd")
        b.array("a", dim_sizes=(4096,))
        b.array("x", dim_sizes=(4096,))
        b.array("z", dim_sizes=(4096,))
        xi = b.load("x", b.idx(offset=1), name="xi")
        b.store("a", b.idx(offset=1), xi)
        t = b.load("a", b.idx(offset=0), name="t")
        b.store("z", b.idx(), t)
        loop = b.build()
        dep = analyze_loop(loop, 2)
        tr = transform_loop(dep, paper, all_scalar(loop), 2)
        body = tr.loop.body
        a_stores = [i for i, op in enumerate(body) if op.is_store and op.array == "a"]
        a_loads = [i for i, op in enumerate(body) if op.is_load and op.array == "a"]
        assert max(a_stores) < min(a_loads)

    def test_transformed_loops_verify(self, dot_loop, saxpy_loop, stream_loop, paper):
        for loop in (dot_loop, saxpy_loop, stream_loop):
            dep = analyze_loop(loop, 2)
            for assignment in (all_scalar(loop), full_assignment(dep)):
                tr = transform_loop(dep, paper, assignment, 2)
                verify_loop(tr.loop)
                if tr.cleanup:
                    verify_loop(tr.cleanup)
