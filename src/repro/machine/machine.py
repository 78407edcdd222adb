"""Parametric VLIW machine description.

The description answers every question the backend asks:

* which resources exist (:class:`~repro.machine.resources.ResourceClass`),
* what a given IR operation costs in resources and latency
  (:meth:`MachineDescription.opcode_info`),
* how operands move between scalar and vector register files
  (:class:`CommunicationModel`),
* whether vector memory operations must be aligned and what misalignment
  costs (:class:`AlignmentPolicy`), and
* register-file capacities for allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.operations import Operation, OpKind
from repro.ir.types import ScalarType
from repro.machine.resources import OpcodeInfo, ResourceClass, ResourceUse


class CommunicationModel(enum.Enum):
    """How operands transfer between scalar and vector registers.

    ``THROUGH_MEMORY`` matches the paper's evaluated machine: a
    vector-to-scalar transfer is a vector store followed by ``VL`` scalar
    loads; scalar-to-vector is ``VL`` scalar stores followed by a vector
    load.  ``FREE`` matches the Figure 1 toy machine, where the example
    assumes no explicit transfer operations are required.
    """

    THROUGH_MEMORY = "through_memory"
    FREE = "free"


class AlignmentPolicy(enum.Enum):
    """Vector memory alignment regime.

    ``ASSUME_MISALIGNED``: no alignment information; every vector memory
    operation pays the merge cost (steady-state, with previous-iteration
    reuse: one merge per vector memory op).  ``ASSUME_ALIGNED``: perfect
    alignment information and aligned data; no merges.  ``ANALYZE``: use
    per-array alignment offsets to decide per reference.
    """

    ASSUME_MISALIGNED = "assume_misaligned"
    ASSUME_ALIGNED = "assume_aligned"
    ANALYZE = "analyze"


@dataclass(frozen=True)
class LatencyTable:
    """Operation latencies in cycles (Table 1 defaults)."""

    int_alu: int = 1
    int_mul: int = 3
    int_div: int = 36
    fp_alu: int = 4
    fp_mul: int = 4
    fp_div: int = 32
    load: int = 3
    store: int = 1
    branch: int = 1
    merge: int = 1


@dataclass(frozen=True)
class RegisterFiles:
    """Architected register-file capacities (Table 1 defaults)."""

    scalar_int: int = 128
    scalar_fp: int = 128
    vector_int: int = 64
    vector_fp: int = 64
    predicate: int = 64


@dataclass(frozen=True)
class MachineDescription:
    """A statically scheduled machine with optional short-vector support."""

    name: str
    resources: tuple[ResourceClass, ...]
    vector_length: int
    latencies: LatencyTable = LatencyTable()
    register_files: RegisterFiles = RegisterFiles()
    communication: CommunicationModel = CommunicationModel.THROUGH_MEMORY
    alignment: AlignmentPolicy = AlignmentPolicy.ASSUME_MISALIGNED
    # Resource class names used by opcode selection.
    slot_resource: str = "slot"
    int_resource: str = "int"
    fp_resource: str = "fp"
    mem_resource: str = "ls"
    branch_resource: str = "br"
    vector_resource: str = "vec"
    merge_resource: str = "vmerge"
    pipelined_divide: bool = False
    # On some machines (the Figure 1 example) vector memory operations
    # consume the per-cycle vector issue token rather than a load/store unit.
    vector_mem_uses_vector_unit: bool = False
    # Whether lowering materializes loop-control and addressing operations
    # (pointer bumps, induction increment, loop-back branch).  The Figure 1
    # toy machine abstracts these away.
    model_loop_overhead: bool = True

    def __post_init__(self) -> None:
        names = [r.name for r in self.resources]
        if len(set(names)) != len(names):
            raise ValueError("duplicate resource class names")
        if self.vector_length < 2:
            raise ValueError("vector length must be >= 2")

    # ------------------------------------------------------------------

    def _memo(self, slot: str) -> dict:
        """Per-instance memo dict (lazily created; excluded from pickles
        so cache keys and serialized machines stay canonical)."""
        memo = self.__dict__.get(slot)
        if memo is None:
            memo = {}
            object.__setattr__(self, slot, memo)
        return memo

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for slot in ("_rc_memo", "_opcode_memo", "_layout_memo", "_spec_memo"):
            state.pop(slot, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def instance_layout(self) -> tuple[tuple[str, ...], dict[str, tuple[int, int]]]:
        """The flat resource-instance layout, memoized: every instance
        name in declaration order, plus each class's ``(first index,
        count)`` span in that flat order.  The bitset reservation table
        addresses instances by flat index instead of name."""
        memo = self._memo("_layout_memo")
        layout = memo.get("layout")
        if layout is None:
            names: list[str] = []
            spans: dict[str, tuple[int, int]] = {}
            for rc in self.resources:
                spans[rc.name] = (len(names), rc.count)
                names.extend(rc.instances())
            layout = (tuple(names), spans)
            memo["layout"] = layout
        return layout

    def reservation_spec(self, info: OpcodeInfo) -> tuple[tuple[int, int, int], ...]:
        """An opcode's resource uses resolved against the flat instance
        layout, memoized: one ``(first index, instance count, busy
        cycles)`` triple per use, in use order — everything the modulo
        reservation table's bitmask scan needs, with no name lookups.

        The uses must name distinct classes, because the table's row
        masks (``free_rows``) check each use against its class alone.
        Opcode selection pairs the issue slot with one unit class, plus
        the vector unit for Figure 1's vector memory operations; a
        machine whose resource roles share a class is refused here."""
        memo = self._memo("_spec_memo")
        spec = memo.get(info)
        if spec is None:
            names = [use.resource for use in info.uses]
            for name in names:
                if names.count(name) > 1:
                    raise ValueError(
                        f"opcode {info.mnemonic!r} on machine {self.name!r} "
                        f"uses resource class {name!r} twice"
                    )
            _, spans = self.instance_layout()
            spec = tuple(
                (*spans[use.resource], use.cycles) for use in info.uses
            )
            memo[info] = spec
        return spec

    def resource_class(self, name: str) -> ResourceClass:
        memo = self._memo("_rc_memo")
        rc = memo.get(name)
        if rc is not None:
            return rc
        for r in self.resources:
            if r.name == name:
                memo[name] = r
                return r
        raise KeyError(f"machine {self.name!r} has no resource class {name!r}")

    def has_resource(self, name: str) -> bool:
        return any(r.name == name for r in self.resources)

    @property
    def supports_vectors(self) -> bool:
        return self.has_resource(self.vector_resource)

    @property
    def needs_alignment_merges(self) -> bool:
        return self.alignment is not AlignmentPolicy.ASSUME_ALIGNED

    # ------------------------------------------------------------------
    # Opcode selection

    def opcode_info(self, op: Operation) -> OpcodeInfo:
        """Resource requirements and latency for ``op`` on this machine."""
        return self.opcode_info_for(op.kind, op.dtype, op.is_vector)

    def opcode_info_for(
        self, kind: OpKind, dtype: ScalarType, is_vector: bool
    ) -> OpcodeInfo:
        """Memoized: opcode selection is pure per machine, and the
        partitioner/scheduler fast paths resolve the same opcodes for
        every probe, dependence edge, and reservation scan."""
        memo = self._memo("_opcode_memo")
        key = (kind, dtype, is_vector)
        info = memo.get(key)
        if info is None:
            info = self._select_opcode(kind, dtype, is_vector)
            memo[key] = info
        return info

    def _select_opcode(
        self, kind: OpKind, dtype: ScalarType, is_vector: bool
    ) -> OpcodeInfo:
        lat = self.latencies
        uses: list[ResourceUse] = [ResourceUse(self.slot_resource)]

        def add_unit(name: str, cycles: int = 1) -> None:
            # Machines that expose only issue slots (the Figure 1 example)
            # simply omit the functional-unit classes.
            if self.has_resource(name):
                uses.append(ResourceUse(name, cycles))

        if kind.is_overhead:
            if is_vector:
                raise ValueError("overhead operations are never vector")
            if kind is OpKind.CBR:
                add_unit(self.branch_resource)
                return OpcodeInfo("cbr", tuple(uses), lat.branch)
            add_unit(self.int_resource)
            return OpcodeInfo(kind.value, tuple(uses), lat.int_alu)

        if kind in (OpKind.PACK, OpKind.EXTRACT):
            if self.communication is not CommunicationModel.FREE:
                raise ValueError(
                    f"machine {self.name!r} transfers operands through "
                    "memory; pack/extract are not available"
                )
            # A free operand network: no resources, no latency.
            return OpcodeInfo(kind.value, (), 0)

        if kind is OpKind.MERGE:
            if not self.has_resource(self.merge_resource):
                raise ValueError(
                    f"machine {self.name!r} has no merge unit but a merge "
                    "operation was selected"
                )
            uses.append(ResourceUse(self.merge_resource))
            return OpcodeInfo("vmerge", tuple(uses), lat.merge)

        mnemonic = ("v" if is_vector else "") + kind.value

        if kind.is_memory:
            add_unit(self.mem_resource)
            if is_vector:
                if not self.supports_vectors:
                    raise ValueError(
                        f"machine {self.name!r} has no vector support"
                    )
                if self.vector_mem_uses_vector_unit:
                    uses.append(ResourceUse(self.vector_resource))
            latency = lat.load if kind is OpKind.LOAD else lat.store
            return OpcodeInfo(mnemonic, tuple(uses), latency)

        # Arithmetic: scalar ops use int/fp units, vector ops the vector unit.
        latency, blocking = self._arith_latency(kind, dtype)
        cycles = blocking if not self.pipelined_divide else 1
        if is_vector:
            if not self.supports_vectors:
                raise ValueError(f"machine {self.name!r} has no vector unit")
            uses.append(ResourceUse(self.vector_resource, cycles))
        elif dtype.is_float:
            add_unit(self.fp_resource, cycles)
        else:
            add_unit(self.int_resource, cycles)
        return OpcodeInfo(mnemonic, tuple(uses), latency)

    def _arith_latency(self, kind: OpKind, dtype: ScalarType) -> tuple[int, int]:
        """(latency, unit-busy cycles) for an arithmetic kind."""
        lat = self.latencies
        if dtype.is_float:
            if kind in (OpKind.DIV, OpKind.SQRT):
                return lat.fp_div, lat.fp_div
            if kind is OpKind.MUL:
                return lat.fp_mul, 1
            return lat.fp_alu, 1
        if kind in (OpKind.DIV, OpKind.SQRT):
            return lat.int_div, lat.int_div
        if kind is OpKind.MUL:
            return lat.int_mul, 1
        return lat.int_alu, 1

    # ------------------------------------------------------------------
    # Communication cost model (paper Section 3.2: transfers are explicit
    # instructions that compete for resources).

    def transfer_opcodes(
        self, dtype: ScalarType, to_vector: bool
    ) -> list[tuple[OpKind, ScalarType, bool]]:
        """The (kind, dtype, is_vector) opcode sequence for one operand
        transfer.  Empty when communication is free."""
        if self.communication is CommunicationModel.FREE:
            return []
        if to_vector:
            # VL scalar stores, then one vector load.
            return [(OpKind.STORE, dtype, False)] * self.vector_length + [
                (OpKind.LOAD, dtype, True)
            ]
        # One vector store, then VL scalar loads.
        return [(OpKind.STORE, dtype, True)] + [
            (OpKind.LOAD, dtype, False)
        ] * self.vector_length
