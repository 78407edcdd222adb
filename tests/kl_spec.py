"""Executable specification of the Kernighan-Lin iteration.

This is the ``partition_operations`` search loop the floor-bounded one in
:mod:`repro.vectorize.partition` replaced, kept verbatim but for the
recorder and the ``REPRO_KL_VERIFY`` self-checks: every iteration
re-packs its start, then moves every candidate once, whatever the class
floor says about the moves left.  ``tests/test_fastpath.py`` requires
the partitioner's assignment, cost, ``scalar_cost``, iterations,
history and ``moves_accepted`` to equal this one's, and its probes,
re-packs and replayed pack steps to be no more.
"""

from __future__ import annotations

from math import inf

from repro.dependence.analysis import LoopDependence
from repro.ir.operations import Operation
from repro.machine.machine import MachineDescription
from repro.vectorize.communication import Side
from repro.vectorize.partition import (
    IncrementalPacker,
    PartitionConfig,
    PartitionCostModel,
    PartitionResult,
)


def partition_operations(
    dep: LoopDependence,
    machine: MachineDescription,
    config: PartitionConfig | None = None,
) -> PartitionResult:
    """Run the Figure 2 partitioner on an analyzed loop."""
    config = config or PartitionConfig()
    model = PartitionCostModel(dep, machine, config)
    body = dep.loop.body

    assignment: dict[int, Side] = {op.uid: Side.SCALAR for op in body}
    packer = IncrementalPacker(model, assignment)
    scalar_cost = packer.bins.high_water_mark()

    candidates = [op for op in body if dep.is_vectorizable(op)]
    if not candidates or not machine.supports_vectors:
        return PartitionResult(
            assignment=assignment,
            cost=scalar_cost,
            scalar_cost=scalar_cost,
            iterations=0,
            history=[scalar_cost],
            n_bin_packs=model.n_bin_packs,
            n_pack_steps=model.n_pack_steps,
        )

    best_assignment = dict(assignment)
    best_cost = scalar_cost
    history = [scalar_cost]
    last_cost: float = float("inf")
    iterations = 0
    moves = 0
    moves_accepted = 0

    while last_cost != best_cost:
        if config.max_iterations is not None and iterations >= config.max_iterations:
            break
        last_cost = best_cost
        iterations += 1
        locked: set[int] = set()
        cost = packer.repack(assignment)
        bins = packer.bins

        for _ in range(len(candidates)):
            # FIND-OP-TO-SWITCH: cheapest probe among unlocked
            # candidates.  Only a probe below the best so far can
            # change the choice, so each probe is bounded by it.
            best_op: Operation | None = None
            best_probe: float = inf
            for op in candidates:
                if op.uid in locked:
                    continue
                probe = model.probe_cost(bins, assignment, op, best_probe)
                if probe < best_probe:
                    best_probe = probe
                    best_op = op
            assert best_op is not None
            locked.add(best_op.uid)
            moves += 1
            assignment[best_op.uid] = assignment[best_op.uid].flipped()
            # Resume BIN-PACK from the first invalidated reservation
            # in place of re-running it from scratch.
            cost = packer.repack(assignment)
            if cost < best_cost:
                best_cost = cost
                best_assignment = dict(assignment)
                moves_accepted += 1
        history.append(best_cost)
        assignment = dict(best_assignment)

    return PartitionResult(
        assignment=best_assignment,
        cost=best_cost,
        scalar_cost=scalar_cost,
        iterations=iterations,
        history=history,
        moves=moves,
        moves_accepted=moves_accepted,
        n_probes=model.n_probes,
        n_bin_packs=model.n_bin_packs,
        n_repacks=model.n_repacks,
        n_pack_steps=model.n_pack_steps,
    )
