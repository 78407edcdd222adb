"""Tests for communication accounting and alignment modeling."""

import pytest

from repro.dependence.analysis import analyze_loop
from repro.ir.builder import LoopBuilder
from repro.ir.types import ScalarType
from repro.machine.configs import aligned_machine
from repro.machine.machine import AlignmentPolicy
from repro.vectorize.alignment import merge_overhead_opcodes, reference_is_misaligned
from repro.vectorize.communication import (
    Side,
    dataflow_of,
    transfer_cost_opcodes,
    transfer_keys_touching,
    transfers_for,
)

from dataclasses import replace

from tests.communication_spec import transfer_for_key


class TestDataflow:
    def test_consumers_map(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        load_x, load_y, mul, add = dot_loop.body
        assert df.consumers[load_x.uid] == [mul.uid]
        assert df.consumers[mul.uid] == [add.uid]
        assert df.consumers[add.uid] == []

    def test_carried_consumers(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        (entry,) = df.carried_consumers
        assert entry.name == "s"

    def test_constant_carried_detected(self, saxpy_loop):
        dep = analyze_loop(saxpy_loop, 2)
        df = dataflow_of(dep)
        assert any(r.name == "a" for r in df.constant_carried)


class TestTransfers:
    def test_no_transfer_when_same_side(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        assignment = {op.uid: Side.SCALAR for op in dot_loop.body}
        assert transfers_for(df, assignment) == []

    def test_vector_to_scalar_direction(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        assignment = {op.uid: Side.SCALAR for op in dot_loop.body}
        mul = dot_loop.body[2]
        assignment[mul.uid] = Side.VECTOR
        # mul consumes two scalar loads and feeds the scalar add:
        # loads -> mul are two scalar->vector packs; mul -> add is one
        # vector->scalar transfer.
        transfers = transfers_for(df, assignment)
        directions = sorted(t.to_vector for t in transfers)
        assert directions == [False, True, True]

    def test_constant_carried_never_transfers(self, saxpy_loop):
        dep = analyze_loop(saxpy_loop, 2)
        df = dataflow_of(dep)
        assignment = {op.uid: Side.VECTOR if dep.is_vectorizable(op) else Side.SCALAR
                      for op in saxpy_loop.body}
        assert all(
            not (isinstance(t.key, tuple) and t.key[0] == "carried")
            for t in transfers_for(df, assignment)
        )

    def test_transfer_keys_touching(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        mul = dot_loop.body[2]
        keys = transfer_keys_touching(df, mul)
        load_x, load_y = dot_loop.body[0], dot_loop.body[1]
        assert keys == {mul.uid, load_x.uid, load_y.uid}

    def test_transfer_for_key_matches_full_computation(self, dot_loop):
        dep = analyze_loop(dot_loop, 2)
        df = dataflow_of(dep)
        assignment = {op.uid: Side.SCALAR for op in dot_loop.body}
        assignment[dot_loop.body[2].uid] = Side.VECTOR
        full = {t.key: t for t in transfers_for(df, assignment)}
        for key in full:
            assert transfer_for_key(df, assignment, key) == full[key]

    def test_transfer_cost_through_memory(self, paper):
        from repro.vectorize.communication import Transfer

        t = Transfer(key=1, dtype=ScalarType.F64, to_vector=True)
        infos = transfer_cost_opcodes(paper, t)
        assert len(infos) == 3
        mnemonics = [i.mnemonic for i in infos]
        assert mnemonics == ["store", "store", "vload"]

    def test_transfer_cost_free_machine(self, toy):
        from repro.vectorize.communication import Transfer

        t = Transfer(key=1, dtype=ScalarType.F64, to_vector=True)
        assert transfer_cost_opcodes(toy, t) == []


class TestAlignment:
    def _load(self, loop):
        return loop.body[0]

    def test_assume_misaligned_pays(self, stream_loop, paper):
        assert reference_is_misaligned(paper, stream_loop, self._load(stream_loop))
        assert len(merge_overhead_opcodes(paper, stream_loop, self._load(stream_loop))) == 1

    def test_assume_aligned_free(self, stream_loop):
        machine = aligned_machine()
        assert not reference_is_misaligned(machine, stream_loop, self._load(stream_loop))
        assert merge_overhead_opcodes(machine, stream_loop, self._load(stream_loop)) == []

    def test_analyze_mode_uses_offsets(self, paper):
        machine = replace(paper, alignment=AlignmentPolicy.ANALYZE)
        b = LoopBuilder("al")
        b.array("ev", dim_sizes=(2048,))              # aligned base
        b.array("od", dim_sizes=(2048,), alignment_offset=1)
        a0 = b.load("ev", b.idx(offset=0), name="a0")   # aligned
        a1 = b.load("ev", b.idx(offset=1), name="a1")   # misaligned
        a2 = b.load("od", b.idx(offset=1), name="a2")   # 1+1 = aligned
        b.array("z", dim_sizes=(2048,))
        b.store("z", b.idx(), b.add(b.add(a0, a1), a2))
        loop = b.build()
        assert not reference_is_misaligned(machine, loop, loop.body[0])
        assert reference_is_misaligned(machine, loop, loop.body[1])
        assert not reference_is_misaligned(machine, loop, loop.body[2])

    def test_analyze_mode_symbolic_offset_conservative(self, paper):
        machine = replace(paper, alignment=AlignmentPolicy.ANALYZE)
        b = LoopBuilder("sym")
        b.array("x", dim_sizes=(2048,))
        b.array("z", dim_sizes=(2048,))
        t = b.load("x", b.idx(j=1), name="t")
        b.store("z", b.idx(), t)
        loop = b.build()
        assert reference_is_misaligned(machine, loop, loop.body[0])

    def test_non_memory_op_rejected(self, dot_loop, paper):
        with pytest.raises(ValueError):
            reference_is_misaligned(paper, dot_loop, dot_loop.body[2])
