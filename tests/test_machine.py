"""Tests for machine descriptions and opcode selection."""

import pytest

from repro.ir.operations import OpKind
from repro.ir.types import ScalarType
from repro.machine.configs import (
    aligned_machine,
    dual_vector_unit_machine,
    free_communication_machine,
    scalar_only_machine,
    wide_vector_machine,
)
from repro.machine.machine import AlignmentPolicy, CommunicationModel
from repro.machine.resources import ResourceClass, ResourceUse

F64 = ScalarType.F64
I64 = ScalarType.I64


def uses_of(machine, kind, dtype=F64, vector=False):
    info = machine.opcode_info_for(kind, dtype, vector)
    return {u.resource for u in info.uses}


class TestResourceClass:
    def test_instances(self):
        rc = ResourceClass("int", 3)
        assert rc.instances() == ["int0", "int1", "int2"]

    def test_count_validated(self):
        with pytest.raises(ValueError):
            ResourceClass("x", 0)

    def test_resource_use_cycles_validated(self):
        with pytest.raises(ValueError):
            ResourceUse("x", 0)


class TestPaperMachine:
    def test_table1_resources(self, paper):
        expect = {"slot": 6, "int": 4, "fp": 2, "ls": 2, "br": 1, "vec": 1, "vmerge": 1}
        assert {r.name: r.count for r in paper.resources} == expect

    def test_table1_latencies(self, paper):
        lat = paper.latencies
        assert (lat.int_alu, lat.int_mul, lat.int_div) == (1, 3, 36)
        assert (lat.fp_alu, lat.fp_mul, lat.fp_div) == (4, 4, 32)
        assert (lat.load, lat.branch) == (3, 1)

    def test_table1_register_files(self, paper):
        rf = paper.register_files
        assert (rf.scalar_int, rf.scalar_fp) == (128, 128)
        assert (rf.vector_int, rf.vector_fp) == (64, 64)
        assert rf.predicate == 64

    def test_scalar_fp_add_uses_fp_unit(self, paper):
        assert uses_of(paper, OpKind.ADD) == {"slot", "fp"}

    def test_scalar_int_add_uses_int_unit(self, paper):
        assert uses_of(paper, OpKind.ADD, I64) == {"slot", "int"}

    def test_vector_arith_uses_vector_unit(self, paper):
        assert uses_of(paper, OpKind.MUL, F64, vector=True) == {"slot", "vec"}

    def test_vector_memory_competes_on_ls(self, paper):
        assert uses_of(paper, OpKind.LOAD, F64, vector=True) == {"slot", "ls"}

    def test_merge_uses_merge_unit(self, paper):
        assert uses_of(paper, OpKind.MERGE, F64, vector=True) == {"slot", "vmerge"}

    def test_overhead_ops(self, paper):
        assert uses_of(paper, OpKind.BUMP, I64) == {"slot", "int"}
        assert uses_of(paper, OpKind.CBR, I64) == {"slot", "br"}

    def test_divide_blocks_unit(self, paper):
        info = paper.opcode_info_for(OpKind.DIV, F64, False)
        fp_use = next(u for u in info.uses if u.resource == "fp")
        assert fp_use.cycles == 32
        assert info.latency == 32

    def test_multiply_is_pipelined(self, paper):
        info = paper.opcode_info_for(OpKind.MUL, F64, False)
        fp_use = next(u for u in info.uses if u.resource == "fp")
        assert fp_use.cycles == 1
        assert info.latency == 4

    def test_pack_rejected_on_through_memory_machine(self, paper):
        with pytest.raises(ValueError):
            paper.opcode_info_for(OpKind.PACK, F64, True)

    def test_transfer_opcodes_through_memory(self, paper):
        to_vec = paper.transfer_opcodes(F64, to_vector=True)
        assert len(to_vec) == 3  # 2 scalar stores + 1 vector load
        assert to_vec[-1] == (OpKind.LOAD, F64, True)
        from_vec = paper.transfer_opcodes(F64, to_vector=False)
        assert from_vec[0] == (OpKind.STORE, F64, True)
        assert len(from_vec) == 3


class TestToyMachine:
    def test_three_slots_only(self, toy):
        names = {r.name for r in toy.resources}
        assert names == {"slot", "vec"}
        assert toy.resource_class("slot").count == 3

    def test_scalar_ops_take_slot_only(self, toy):
        assert uses_of(toy, OpKind.MUL) == {"slot"}
        assert uses_of(toy, OpKind.LOAD) == {"slot"}

    def test_vector_memory_takes_vector_token(self, toy):
        assert uses_of(toy, OpKind.LOAD, vector=True) == {"slot", "vec"}

    def test_free_communication(self, toy):
        assert toy.transfer_opcodes(F64, True) == []
        info = toy.opcode_info_for(OpKind.PACK, F64, True)
        assert info.uses == () and info.latency == 0

    def test_unit_latencies(self, toy):
        assert toy.opcode_info_for(OpKind.MUL, F64, False).latency == 1
        assert toy.opcode_info_for(OpKind.LOAD, F64, False).latency == 1

    def test_no_loop_overhead(self, toy):
        assert not toy.model_loop_overhead


class TestVariants:
    def test_scalar_only_has_no_vectors(self):
        m = scalar_only_machine()
        assert not m.supports_vectors
        with pytest.raises(ValueError):
            m.opcode_info_for(OpKind.ADD, F64, True)

    def test_wide_vector_length(self):
        assert wide_vector_machine(4).vector_length == 4

    def test_dual_vector_units(self):
        m = dual_vector_unit_machine()
        assert m.resource_class("vec").count == 2

    def test_aligned_machine_policy(self):
        assert aligned_machine().alignment is AlignmentPolicy.ASSUME_ALIGNED
        assert not aligned_machine().needs_alignment_merges

    def test_free_comm_machine(self):
        m = free_communication_machine()
        assert m.communication is CommunicationModel.FREE
        assert m.transfer_opcodes(F64, True) == []

    def test_duplicate_resource_names_rejected(self):
        from repro.machine.machine import MachineDescription

        with pytest.raises(ValueError):
            MachineDescription(
                "bad",
                (ResourceClass("slot", 1), ResourceClass("slot", 2)),
                vector_length=2,
            )

    def test_reservation_spec_refuses_a_class_used_twice(self, toy):
        # Vector memory on the Figure 1 machine takes the vector token; a
        # machine that also routes memory through ``vec`` would name that
        # class twice in one opcode, which the row masks cannot check.
        from dataclasses import replace

        bad = replace(toy, name="vec-mem", mem_resource="vec")
        info = bad.opcode_info_for(OpKind.LOAD, F64, True)
        with pytest.raises(ValueError, match="'vload'.*'vec-mem'.*'vec' twice"):
            bad.reservation_spec(info)
        # Its other opcodes still resolve.
        assert bad.reservation_spec(bad.opcode_info_for(OpKind.ADD, F64, True))

    def test_unknown_resource_class_lookup(self, paper):
        with pytest.raises(KeyError):
            paper.resource_class("tpu")
