"""Tests for repro.ir.operations and repro.ir.values."""

import dataclasses

import pytest

import repro.ir.operations as operations
from repro.ir.operations import Operation, OpKind
from repro.ir.subscripts import Subscript
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import (
    Constant,
    VirtualRegister,
    const_f64,
    const_i64,
    lane_register,
    vector_register,
)

F64 = ScalarType.F64
I64 = ScalarType.I64


def reg(name, ty=F64):
    return VirtualRegister(name, ty)


class TestValues:
    def test_const_factories(self):
        assert const_i64(3) == Constant(3, I64)
        assert const_f64(3) == Constant(3.0, F64)

    def test_i64_constant_rejects_float(self):
        with pytest.raises(TypeError):
            Constant(1.5, I64)

    def test_lane_register_derives_scalar(self):
        v = reg("t", VectorType(F64, 2))
        lane = lane_register(v, 1)
        assert lane.type is F64
        assert lane.name == "t.l1"

    def test_lane_register_of_scalar(self):
        lane = lane_register(reg("t"), 0)
        assert lane.type is F64

    def test_vector_register_widens(self):
        v = vector_register(reg("t"), 2)
        assert v.type == VectorType(F64, 2)
        assert v.name == "t.v"

    def test_vector_register_idempotent(self):
        v = reg("t", VectorType(F64, 2))
        assert vector_register(v, 2) is v

    def test_register_is_vector(self):
        assert reg("t", VectorType(F64, 2)).is_vector
        assert not reg("t").is_vector


class TestOpKind:
    def test_arity_table(self):
        assert OpKind.ADD.arity == 2
        assert OpKind.NEG.arity == 1
        assert OpKind.LOAD.arity == 0
        assert OpKind.STORE.arity == 1
        assert OpKind.PACK.arity == -1

    def test_memory_kinds(self):
        assert OpKind.LOAD.is_memory and OpKind.STORE.is_memory
        assert not OpKind.ADD.is_memory

    def test_overhead_kinds(self):
        for kind in (OpKind.BUMP, OpKind.IVINC, OpKind.CBR):
            assert kind.is_overhead
        assert not OpKind.MERGE.is_overhead

    def test_has_dest(self):
        assert OpKind.LOAD.has_dest
        assert not OpKind.STORE.has_dest
        assert not OpKind.CBR.has_dest

    def test_commutative(self):
        assert OpKind.ADD.is_commutative
        assert OpKind.MUL.is_commutative
        assert not OpKind.SUB.is_commutative


class TestOperation:
    def test_unique_uids(self):
        a = Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), reg("y")))
        b = Operation(OpKind.ADD, F64, dest=reg("b"), srcs=(reg("x"), reg("y")))
        assert a.uid != b.uid
        assert a != b

    # Each malformed construction raises its exact message.

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="^add expects 2 sources, got 1$"):
            Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"),))

    def test_memory_requires_array_and_subscript(self):
        with pytest.raises(ValueError, match="^load requires array and subscript$"):
            Operation(OpKind.LOAD, F64, dest=reg("a"))

    def test_non_memory_rejects_array(self):
        with pytest.raises(ValueError, match="^add must not name an array$"):
            Operation(
                OpKind.ADD,
                F64,
                dest=reg("a"),
                srcs=(reg("x"), reg("y")),
                array="x",
            )

    def test_dest_required(self):
        with pytest.raises(ValueError, match="^add requires a destination$"):
            Operation(OpKind.ADD, F64, srcs=(reg("x"), reg("y")))

    def test_store_rejects_dest(self):
        with pytest.raises(ValueError, match="^store cannot have a destination$"):
            Operation(
                OpKind.STORE,
                F64,
                dest=reg("a"),
                srcs=(reg("v"),),
                array="x",
                subscript=Subscript.linear(),
            )

    def test_pack_requires_sources(self):
        with pytest.raises(ValueError, match="^pack expects at least one source$"):
            Operation(OpKind.PACK, F64, dest=reg("a", VectorType(F64, 2)))

    def test_stored_value(self):
        v = reg("v")
        op = Operation(
            OpKind.STORE, F64, srcs=(v,), array="x", subscript=Subscript.linear()
        )
        assert op.stored_value == v

    def test_stored_value_on_load_raises(self):
        op = Operation(
            OpKind.LOAD, F64, dest=reg("a"), array="x", subscript=Subscript.linear()
        )
        with pytest.raises(ValueError):
            _ = op.stored_value

    def test_registers_read_skips_constants(self):
        op = Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), const_f64(1)))
        assert op.registers_read() == (reg("x"),)

    def test_mnemonic_vector_prefix(self):
        op = Operation(
            OpKind.LOAD,
            F64,
            dest=reg("a", VectorType(F64, 2)),
            array="x",
            subscript=Subscript.linear(),
            is_vector=True,
        )
        assert op.mnemonic() == "vload"

    def test_str_contains_pieces(self):
        op = Operation(OpKind.MUL, F64, dest=reg("a"), srcs=(reg("x"), reg("y")))
        text = str(op)
        assert "%a" in text and "mul.f64" in text and "%x" in text

    def test_with_srcs_changes_uid(self):
        op = Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), reg("y")))
        op2 = op.with_srcs((reg("p"), reg("q")))
        assert op2.uid != op.uid
        assert op2.srcs == (reg("p"), reg("q"))


class TestOperationInit:
    """``Operation`` is built by a hand-written ``__init__``: the checks
    of the generated one's ``__post_init__``, then the ten fields."""

    def test_init_is_written_by_hand(self):
        # A generated dataclass init is compiled from a string.
        assert Operation.__init__.__code__.co_filename == operations.__file__

    def test_fields_bound_in_declaration_order(self):
        # One key order for every instance dict, so they share their keys.
        op = Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), reg("y")))
        names = [f.name for f in dataclasses.fields(Operation)]
        assert list(vars(op)) == names
        assert len(names) == 10

    def test_defaults_and_fresh_uids(self):
        a = Operation(OpKind.IVINC, I64, dest=reg("i", I64))
        b = Operation(OpKind.IVINC, I64, dest=reg("i", I64))
        assert b.uid > a.uid
        assert (a.srcs, a.array, a.subscript, a.is_vector) == ((), None, None, False)
        assert (a.origin, a.lane) == (None, None)

    def test_fields_are_frozen(self):
        op = Operation(OpKind.IVINC, I64, dest=reg("i", I64))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.uid = 0

    def test_replace_keeps_uid_and_provenance(self):
        op = Operation(
            OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), reg("y")), origin=7, lane=1
        )
        swapped = dataclasses.replace(op, srcs=(reg("y"), reg("x")))
        assert swapped.uid == op.uid
        assert (swapped.origin, swapped.lane) == (7, 1)
        assert swapped.srcs == (reg("y"), reg("x"))
        fresh = op.with_srcs((reg("y"), reg("x")))
        assert fresh.uid != op.uid
        assert (fresh.origin, fresh.lane) == (7, 1)

    def test_replace_still_checks(self):
        op = Operation(OpKind.ADD, F64, dest=reg("a"), srcs=(reg("x"), reg("y")))
        with pytest.raises(ValueError, match="^add expects 2 sources, got 1$"):
            dataclasses.replace(op, srcs=(reg("x"),))
