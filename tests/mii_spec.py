"""Executable specification of the resource-constrained bound.

This is the per-operation ``res_mii`` the one-replay bound in
:mod:`repro.pipeline.mii` replaced, kept verbatim: the body sorted by
placement freedom (a stable sort), then one ``reserve_least_used`` per
operation, each resolving the operation's opcode again.
``tests/test_flat_kernels.py`` requires the one-replay bound's value,
pressure table and bottleneck to equal this one's.
"""

from __future__ import annotations

from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.pipeline.mii import ResMII
from repro.vectorize.bins import Bins, placement_freedom


def res_mii(loop: Loop, machine: MachineDescription) -> ResMII:
    """Resource-constrained minimum II of a (transformed) loop body."""
    bins = Bins(machine)
    ordered = sorted(
        loop.body,
        key=lambda op: placement_freedom(machine, machine.opcode_info(op)),
    )
    for op in ordered:
        bins.reserve_least_used(machine.opcode_info(op), ("op", op.uid))
    high = bins.high_water_mark()
    pressure = bins.weights
    bottleneck = None
    if high > 0:
        bottleneck = min(inst for inst, w in pressure.items() if w == high)
    return ResMII(max(1, high), pressure=pressure, bottleneck=bottleneck)
