"""Traditional vectorization (Allen & Kennedy), the paper's first baseline.

Loops containing a mix of vectorizable and non-vectorizable operations
are *distributed*: the dependence graph's strongly connected components
are partitioned into vector loops (components whose operations are all
vectorizable) and scalar loops (the rest), ordered topologically.  Greedy
typed fusion merges adjacent compatible components to limit the number of
distributed loops, and scalar expansion communicates register values
between loops through temporary arrays — including the case where
non-vectorizable memory references are first aggregated into contiguous
memory so vector loops can consume them directly.

Each distributed loop is then compiled independently: vector loops
through the shared transformation engine with everything vectorized,
scalar loops as ordinary (non-unrolled) modulo-scheduled loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.analysis import LoopDependence
from repro.dependence.graph import DepKind, Via
from repro.ir.loop import ArrayInfo, CarriedScalar, Loop
from repro.ir.operations import Operation, OpKind
from repro.ir.subscripts import Subscript
from repro.ir.types import ScalarType
from repro.ir.values import Operand, VirtualRegister
from repro.machine.machine import MachineDescription
from repro.vectorize.full import refine_isolated
from repro.vectorize.transform import SCRATCH_ELEMS

EXPANSION_PREFIX = "exp."


@dataclass
class DistributedUnit:
    """One loop produced by distribution, in execution order."""

    loop: Loop
    vector: bool


def distribute_loop(
    dep: LoopDependence,
    machine: MachineDescription,
    fuse: bool = True,
) -> list[DistributedUnit]:
    """Distribute a loop into vector and scalar sub-loops with scalar
    expansion, after greedy typed fusion.

    ``fuse=False`` reproduces the "straightforward implementation" the
    paper warns about: every strongly connected component becomes its own
    loop, which "tends to create a large number of distributed loops".
    """
    loop = dep.loop
    vec_ops = refine_isolated(dep, set(dep.vectorizable))
    components = dep.components
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(components):
        for uid in comp:
            comp_of[uid] = i
    comp_vector = [all(uid in vec_ops for uid in comp) for comp in components]

    # Greedy typed fusion: a component joins the latest partition of its
    # type consistent with dependence order.  fidx[i] is the partition
    # ordinal; components sharing (fidx, type) fuse into one loop.
    if fuse:
        fidx = [0] * len(components)
        for i, comp in enumerate(components):
            for uid in comp:
                for edge in dep.graph.predecessors(uid):
                    p = comp_of[edge.src]
                    if p == i:
                        continue
                    need = (
                        fidx[p] if comp_vector[p] == comp_vector[i] else fidx[p] + 1
                    )
                    fidx[i] = max(fidx[i], need)
    else:
        fidx = list(range(len(components)))

    partition_keys = sorted(
        {(fidx[i], not comp_vector[i]) for i in range(len(components))}
    )
    key_to_part = {key: n for n, key in enumerate(partition_keys)}
    part_of: dict[int, int] = {}
    part_vector = [not key[1] for key in partition_keys]
    part_members: list[list[int]] = [[] for _ in partition_keys]
    body_index = {op.uid: i for i, op in enumerate(loop.body)}
    for i, comp in enumerate(components):
        part = key_to_part[(fidx[i], not comp_vector[i])]
        for uid in comp:
            part_of[uid] = part
            part_members[part].append(uid)
    for members in part_members:
        members.sort(key=body_index.__getitem__)

    if len(partition_keys) == 1:
        # Nothing to distribute: a single loop, vector or scalar.
        return [DistributedUnit(loop, part_vector[0])]

    return _emit_partitions(dep, part_members, part_vector, part_of)


def _emit_partitions(
    dep: LoopDependence,
    part_members: list[list[int]],
    part_vector: list[bool],
    part_of: dict[int, int],
) -> list[DistributedUnit]:
    loop = dep.loop
    def_of: dict[VirtualRegister, Operation] = {
        op.dest: op for op in loop.body if op.dest is not None
    }

    # Values crossing partitions: register flow producer -> remote consumer.
    exported: dict[VirtualRegister, set[int]] = {}  # value -> consumer partitions
    for edge in dep.graph.edges:
        if edge.kind is not DepKind.FLOW or edge.via is not Via.REGISTER:
            continue
        src_op = dep.graph.ops[edge.src]
        if src_op.dest is None:
            continue
        sp, cp = part_of[edge.src], part_of[edge.dst]
        if sp != cp:
            exported.setdefault(src_op.dest, set()).add(cp)

    # Carried scalars: owner partition carries the recurrence; remote
    # readers receive the per-iteration entry value via expansion, unless
    # the carried value never changes (exit == entry), in which case every
    # reading partition simply declares it.
    carried_owner: dict[VirtualRegister, int] = {}
    carried_remote_readers: dict[VirtualRegister, set[int]] = {}
    for c in loop.carried:
        readers = [
            op.uid for op in loop.body if c.entry in op.registers_read()
        ]
        if isinstance(c.exit, VirtualRegister) and c.exit in def_of:
            owner = part_of[def_of[c.exit].uid]
        elif readers:
            owner = part_of[readers[0]]
        else:
            owner = 0
        carried_owner[c.entry] = owner
        if c.exit != c.entry:
            remote = {part_of[r] for r in readers if part_of[r] != owner}
            if remote:
                carried_remote_readers[c.entry] = remote

    units: list[DistributedUnit] = []
    for part, members in enumerate(part_members):
        units.append(
            _build_partition_loop(
                dep,
                part,
                members,
                part_vector[part],
                part_of,
                exported,
                carried_owner,
                carried_remote_readers,
            )
        )
    return units


def _expansion_array(name: str) -> str:
    return f"{EXPANSION_PREFIX}{name}"


def _build_partition_loop(
    dep: LoopDependence,
    part: int,
    members: list[int],
    vector: bool,
    part_of: dict[int, int],
    exported: dict[VirtualRegister, set[int]],
    carried_owner: dict[VirtualRegister, int],
    carried_remote_readers: dict[VirtualRegister, set[int]],
) -> DistributedUnit:
    loop = dep.loop
    member_set = set(members)
    def_here = {
        op.dest
        for op in loop.body
        if op.uid in member_set and op.dest is not None
    }
    carried_by_entry = {c.entry: c for c in loop.carried}

    body: list[Operation] = []
    arrays: dict[str, ArrayInfo] = {}
    substitution: dict[VirtualRegister, Operand] = {}

    def declare_expansion(reg: VirtualRegister) -> str:
        array = _expansion_array(reg.name)
        dtype = reg.type
        assert isinstance(dtype, ScalarType)
        arrays[array] = ArrayInfo(array, dtype, (SCRATCH_ELEMS,))
        return array

    # Imports: values produced elsewhere, and remote carried entries.
    needed: set[VirtualRegister] = set()
    for uid in members:
        for src in dep.graph.ops[uid].registers_read():
            if src in def_here:
                continue
            if src in carried_by_entry:
                c = carried_by_entry[src]
                if (
                    carried_owner[src] != part
                    and part in carried_remote_readers.get(src, set())
                ):
                    needed.add(src)
                continue
            producer = next(
                (op for op in loop.body if op.dest == src), None
            )
            if producer is not None and part_of[producer.uid] != part:
                needed.add(src)

    for reg in sorted(needed, key=lambda r: r.name):
        array = declare_expansion(reg)
        dtype = reg.type
        assert isinstance(dtype, ScalarType)
        local = VirtualRegister(f"{reg.name}.x{part}", dtype)
        body.append(
            Operation(
                OpKind.LOAD,
                dtype,
                dest=local,
                array=array,
                subscript=Subscript.linear(1, 0),
            )
        )
        substitution[reg] = local

    # Member operations with substituted operands.
    for uid in members:
        op = dep.graph.ops[uid]
        new_srcs = tuple(
            substitution.get(s, s) if isinstance(s, VirtualRegister) else s
            for s in op.srcs
        )
        if new_srcs != op.srcs:
            op = op.with_srcs(new_srcs)
        body.append(op)
        if op.array is not None:
            arrays[op.array] = loop.arrays[op.array]

    # Exports: expansion stores for values consumed by later partitions,
    # and the per-iteration entry value of carried scalars we own.
    for reg in sorted(exported, key=lambda r: r.name):
        if reg in def_here and exported[reg] - {part}:
            array = declare_expansion(reg)
            dtype = reg.type
            assert isinstance(dtype, ScalarType)
            body.append(
                Operation(
                    OpKind.STORE,
                    dtype,
                    srcs=(reg,),
                    array=array,
                    subscript=Subscript.linear(1, 0),
                )
            )
    for entry, remote in sorted(
        carried_remote_readers.items(), key=lambda kv: kv[0].name
    ):
        if carried_owner[entry] == part:
            array = declare_expansion(entry)
            dtype = entry.type
            assert isinstance(dtype, ScalarType)
            body.append(
                Operation(
                    OpKind.STORE,
                    dtype,
                    srcs=(entry,),
                    array=array,
                    subscript=Subscript.linear(1, 0),
                )
            )

    carried: list[CarriedScalar] = []
    for c in loop.carried:
        if carried_owner[c.entry] == part:
            carried.append(c)
        elif c.exit == c.entry and any(
            c.entry in dep.graph.ops[uid].registers_read() for uid in members
        ):
            carried.append(c)  # never-changing value: declare locally

    owned_entries = {c.entry for c in carried}
    live_out = tuple(
        r for r in loop.live_out if r in def_here or r in owned_entries
    )

    sub_loop = Loop(
        name=f"{loop.name}.d{part}{'v' if vector else 's'}",
        body=tuple(body),
        arrays=arrays,
        carried=tuple(carried),
        live_out=live_out,
        preheader=loop.preheader,
        symbols=dict(loop.symbols),
    )
    from repro.ir.verifier import verify_loop

    verify_loop(sub_loop)
    return DistributedUnit(sub_loop, vector)
