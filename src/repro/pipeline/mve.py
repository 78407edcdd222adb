"""Modulo variable expansion (Lam, PLDI 1988).

Rotating register files let each kernel iteration write a fresh physical
register; machines without them achieve the same effect by *unrolling the
kernel* and renaming: a value live across ``k`` kernel copies needs
``k+1`` names, and the kernel must be unrolled by the least common
multiple-free bound ``max_v ceil(lifetime(v) / II)`` so each copy can use
a distinct name round-robin.  The paper's Trimaran machine has rotating
registers; this module provides the fallback the paper points to ("if
rotating registers are not available, a similar effect is achievable with
modulo variable expansion [19, 32]").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dependence.graph import DependenceGraph
from repro.ir.values import VirtualRegister
from repro.pipeline.scheduler import ModuloSchedule
from repro.regalloc.allocator import register_file_of, value_lifetimes


@dataclass
class MVEResult:
    """Kernel unroll factor and renaming requirements."""

    unroll: int
    copies_per_value: dict[VirtualRegister, int]
    registers_per_file: dict[str, int] = field(default_factory=dict)

    def names_for(self, reg: VirtualRegister) -> list[str]:
        copies = self.copies_per_value.get(reg, 1)
        return [f"{reg.name}#{k}" for k in range(copies)]


def modulo_variable_expansion(
    schedule: ModuloSchedule, graph: DependenceGraph
) -> MVEResult:
    """Compute the kernel unroll factor and per-value name counts."""
    ii = schedule.ii
    lifetimes = value_lifetimes(schedule, graph)
    copies: dict[VirtualRegister, int] = {}
    for reg, (start, end) in lifetimes.items():
        copies[reg] = max(1, math.ceil((end - start) / ii))
    unroll = max(copies.values(), default=1)

    per_file: dict[str, int] = {}
    for reg, count in copies.items():
        file = register_file_of(reg)
        per_file[file] = per_file.get(file, 0) + count
    return MVEResult(
        unroll=unroll, copies_per_value=copies, registers_per_file=per_file
    )


def expanded_kernel_listing(
    schedule: ModuloSchedule, graph: DependenceGraph
) -> str:
    """The MVE-unrolled kernel: ``unroll`` copies of the kernel with
    destination registers renamed round-robin.  Copy ``u`` of the kernel
    writes name ``v#(u mod copies(v))`` for each value ``v``."""
    mve = modulo_variable_expansion(schedule, graph)
    lines = [
        f"MVE kernel of {schedule.loop.name}: unroll x{mve.unroll} "
        f"(II {schedule.ii} -> effective {schedule.ii * mve.unroll})"
    ]
    rows = schedule.kernel_rows()
    for u in range(mve.unroll):
        lines.append(f"  copy {u}:")
        for cycle, row in enumerate(rows):
            rendered = []
            for op, stage in row:
                if op.dest is not None:
                    n = mve.copies_per_value[op.dest]
                    name = f"{op.dest.name}#{u % n}"
                    rendered.append(f"{name} = {op.mnemonic()}[s{stage}]")
                else:
                    rendered.append(f"{op.mnemonic()}[s{stage}]")
            lines.append(
                f"    cycle {u * schedule.ii + cycle}: " + ", ".join(rendered)
            )
    return "\n".join(lines)
