"""Dependence graph over loop operations.

Nodes are operation uids; edges carry a dependence kind (flow / anti /
output), the channel the dependence travels through (register, memory, or
a loop-carried scalar), and an iteration distance.  ``exact=False`` marks
conservative edges produced when the subscript tests could not pin a
distance: such an edge stands for dependences at its distance *and all
larger distances*, and is always paired with a reverse edge so the pair
forms a cycle that blocks both vectorization and reordering.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.ir.operations import Operation


class DepKind(enum.Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    CONTROL = "control"

    __hash__ = object.__hash__  # identity hash, as ScalarType's


class Via(enum.Enum):
    REGISTER = "register"
    MEMORY = "memory"
    CARRIED = "carried"
    CONTROL = "control"

    __hash__ = object.__hash__  # identity hash, as ScalarType's


class DepEdge(NamedTuple):
    """One dependence.  A tuple of its fields: a pass builds one per
    dependence of every loop and unit, and a tuple is built in one
    allocation where a frozen dataclass binds each field in turn."""

    src: int
    dst: int
    kind: DepKind
    via: Via
    distance: int
    exact: bool = True

    def __str__(self) -> str:
        star = "" if self.exact else "*"
        return (
            f"{self.src} -> {self.dst} [{self.kind.value}/{self.via.value}, "
            f"d={self.distance}{star}]"
        )


@dataclass
class DependenceGraph:
    """Operations plus dependence edges, with adjacency maps."""

    ops: dict[int, Operation] = field(default_factory=dict)
    edges: list[DepEdge] = field(default_factory=list)
    _succ: dict[int, list[DepEdge]] = field(default_factory=lambda: defaultdict(list))
    _pred: dict[int, list[DepEdge]] = field(default_factory=lambda: defaultdict(list))

    def add_op(self, op: Operation) -> None:
        self.ops[op.uid] = op

    def add_edge(self, edge: DepEdge) -> None:
        if edge.src not in self.ops or edge.dst not in self.ops:
            raise KeyError(f"edge {edge} references unknown operation")
        if edge.distance < 0:
            raise ValueError(f"edge {edge} has negative distance")
        self.edges.append(edge)
        self._succ[edge.src].append(edge)
        self._pred[edge.dst].append(edge)

    def successors(self, uid: int) -> list[DepEdge]:
        return self._succ.get(uid, [])

    def predecessors(self, uid: int) -> list[DepEdge]:
        return self._pred.get(uid, [])

    def node_ids(self) -> list[int]:
        return list(self.ops.keys())

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        lines = [f"dependence graph: {len(self.ops)} ops, {len(self.edges)} edges"]
        for e in self.edges:
            lines.append(f"  {e}")
        return "\n".join(lines)
