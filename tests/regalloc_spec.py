"""Executable specification of the allocator's MaxLive count.

This is the per-kernel-cycle loop the closed form in
:mod:`repro.regalloc.allocator` replaced, kept verbatim: for every
kernel cycle, sum over values the rotating copies live at that cycle
(``_live_copies``, a ``ceil``-window count), then take each register
file's maximum over cycles.  ``tests/test_flat_kernels.py`` requires the
closed form's per-file MaxLive to equal this one's.
"""

from __future__ import annotations

import math

from repro.ir.values import VirtualRegister
from repro.regalloc.allocator import register_file_of


def _live_copies(start: int, end: int, cycle: int, ii: int) -> int:
    """Number of rotating copies of a value live at kernel cycle ``cycle``
    given an absolute lifetime [start, end)."""
    if end <= start:
        return 0
    lo = math.ceil((start - cycle) / ii)
    hi = math.ceil((end - cycle) / ii)
    return max(0, hi - lo)


def max_live(
    lifetimes: dict[VirtualRegister, tuple[int, int]], ii: int
) -> dict[str, int]:
    """Per register file, the most copies live at any kernel cycle."""
    max_live: dict[str, int] = {}
    for cycle in range(ii):
        live_now: dict[str, int] = {}
        for reg, (start, end) in lifetimes.items():
            copies = _live_copies(start, end, cycle, ii)
            if copies:
                file = register_file_of(reg)
                live_now[file] = live_now.get(file, 0) + copies
        for file, count in live_now.items():
            max_live[file] = max(max_live.get(file, 0), count)
    return max_live
