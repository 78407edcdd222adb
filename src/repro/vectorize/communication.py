"""Scalar<->vector operand communication.

On the modeled machine (as in the paper) there is no direct move between
scalar and vector register files: a vector-to-scalar transfer is one
vector store followed by ``VL`` scalar loads from a scratch buffer, and a
scalar-to-vector transfer is ``VL`` scalar stores followed by one vector
load.  A given operand is transferred *at most once* per iteration — all
consumers reuse the transferred copy (paper Section 3.2).

This module computes which transfers a partition assignment implies.  The
same information drives both the partitioner's cost accounting and the
loop transformer's transfer-code emission.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dependence.analysis import LoopDependence
from repro.dependence.graph import DepKind, Via
from repro.ir.operations import Operation
from repro.ir.types import ScalarType
from repro.ir.values import VirtualRegister
from repro.machine.machine import CommunicationModel, MachineDescription
from repro.machine.resources import OpcodeInfo


class Side(enum.Enum):
    SCALAR = "scalar"
    VECTOR = "vector"

    __hash__ = object.__hash__  # identity hash, as ScalarType's

    def flipped(self) -> Side:
        return Side.VECTOR if self is Side.SCALAR else Side.SCALAR


@dataclass(frozen=True)
class Transfer:
    """One operand crossing between partitions each iteration.

    ``producer`` is the defining operation's uid, or a carried-scalar
    entry name for values entering the iteration from the previous one
    (``kind == "carried"``).
    """

    key: object
    dtype: ScalarType
    to_vector: bool

    def __str__(self) -> str:
        direction = "scalar->vector" if self.to_vector else "vector->scalar"
        return f"transfer({self.key}, {direction}, {self.dtype})"


@dataclass
class Dataflow:
    """Register dataflow summary used for communication decisions."""

    # producer uid -> uids of body operations consuming its value
    consumers: dict[int, list[int]]
    # carried entry register -> uids of body operations reading it
    carried_consumers: dict[VirtualRegister, list[int]]
    producer_dtype: dict[int, ScalarType]
    # carried entries whose value never changes (loop-invariant parameters)
    constant_carried: set[VirtualRegister]


def dataflow_of(dep: LoopDependence) -> Dataflow:
    """Extract the producer->consumers map from the dependence graph."""
    consumers: dict[int, list[int]] = {}
    producer_dtype: dict[int, ScalarType] = {}
    for op in dep.loop.body:
        if op.dest is not None:
            consumers[op.uid] = []
            producer_dtype[op.uid] = op.dtype
    for edge in dep.graph.edges:
        if edge.kind is not DepKind.FLOW or edge.via is not Via.REGISTER:
            continue
        if edge.src in consumers:
            consumers[edge.src].append(edge.dst)

    carried_consumers: dict[VirtualRegister, list[int]] = {}
    entries = dep.loop.carried_entries()
    for op in dep.loop.body:
        for src in op.registers_read():
            if src in entries:
                carried_consumers.setdefault(src, []).append(op.uid)
    constant_carried = {c.entry for c in dep.loop.carried if c.exit == c.entry}
    return Dataflow(consumers, carried_consumers, producer_dtype, constant_carried)


def transfers_for(
    dataflow: Dataflow,
    assignment: dict[int, Side],
) -> list[Transfer]:
    """All per-iteration transfers implied by ``assignment``."""
    transfers: list[Transfer] = []
    for producer, consumer_ids in dataflow.consumers.items():
        side = assignment[producer]
        crossing = [c for c in consumer_ids if assignment[c] is not side]
        if crossing:
            transfers.append(
                Transfer(
                    key=producer,
                    dtype=dataflow.producer_dtype[producer],
                    to_vector=(side is Side.SCALAR),
                )
            )
    for entry, consumer_ids in dataflow.carried_consumers.items():
        # Carried entries are scalar values; vector consumers need a pack
        # every iteration — unless the value never changes (exit == entry),
        # in which case a one-time preheader splat suffices (free here).
        if entry in dataflow.constant_carried:
            continue
        if any(assignment[c] is Side.VECTOR for c in consumer_ids):
            dtype = entry.type
            assert isinstance(dtype, ScalarType)
            transfers.append(
                Transfer(key=("carried", entry.name), dtype=dtype, to_vector=True)
            )
    return transfers


def transfer_keys_touching(dataflow: Dataflow, op: Operation) -> set[object]:
    """Transfer keys whose existence can change when ``op`` is
    repartitioned: ``op``'s own operand plus each value ``op`` consumes."""
    keys: set[object] = set()
    if op.dest is not None and op.uid in dataflow.consumers:
        keys.add(op.uid)
    for producer, consumer_ids in dataflow.consumers.items():
        if op.uid in consumer_ids:
            keys.add(producer)
    for entry, consumer_ids in dataflow.carried_consumers.items():
        if op.uid in consumer_ids:
            keys.add(("carried", entry.name))
    return keys


def transfer_cost_opcodes(
    machine: MachineDescription, transfer: Transfer
) -> list[OpcodeInfo]:
    """The machine opcodes one transfer costs per iteration."""
    if machine.communication is CommunicationModel.FREE:
        return []
    ops = machine.transfer_opcodes(transfer.dtype, transfer.to_vector)
    return [machine.opcode_info_for(kind, dtype, vec) for kind, dtype, vec in ops]
