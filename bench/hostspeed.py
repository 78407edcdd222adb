"""Host-speed normalisation of measured times.

The benchmark's reference machine is a shared virtual machine whose
processor speed drifts by up to 1.8x within a minute, as other tenants
come and go; identical compile passes a few seconds apart took 1.4 s and
2.6 s.  A fixed probe that shares no code with the program is timed
between chunks of work, and every time measured in a chunk is scaled by
``REFERENCE_PROBE_S`` over the mean of the probes on either side of it,
raised to ``PROBE_POWER``: the program slows a little more than the
probe does.  A normalised time is what the work would have taken at the
host speed where the probe takes ``REFERENCE_PROBE_S``.

The probe runs with the garbage collector off, so what the program
leaves on the heap does not change its time.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

from bench.config import PROBE_POWER, REFERENCE_PROBE_S

_TABLE = [i & 255 for i in range(1 << 16)]
_INDEX = [random.Random(5).randrange(len(_TABLE)) for _ in range(20000)]
_PAIRS = [(random.Random(2).random(), i) for i in range(3000)]


@dataclass(frozen=True)
class _Key:
    a: int
    b: str


def _scan() -> int:
    """List reads at scattered positions."""
    total = 0
    table = _TABLE
    for i in _INDEX:
        total += table[i]
    return total


def _objects(n: int = 600) -> int:
    """Small frozen objects, hashed into a set and a dict."""
    seen = set()
    groups: dict[_Key, list[int]] = {}
    for i in range(n):
        key = _Key(i % 97, "k")
        seen.add(key)
        groups.setdefault(key, []).append(i)
    return len(seen) + len(groups)


def _sort() -> float:
    """A sort of tuples in native code."""
    return sorted(_PAIRS)[0][0]


_KERNELS = (_scan, _objects, _sort)


def probe() -> float:
    """Seconds of one probe: the geometric mean of three timed kernels.

    Of seven candidate kernels timed between chunks of compiles for four
    minutes per in-process workload, this mix tracked the compile time
    closest: over 8-second windows, compile time divided by it spread by
    3-4% across windows, where the raw time spread by 16-30%.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        product = 1.0
        for kernel in _KERNELS:
            start = time.perf_counter()
            kernel()
            product *= time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return product ** (1.0 / len(_KERNELS))


class HostSpeed:
    """Probes taken between chunks of work, and the factors that scale
    the chunks' times to the reference speed."""

    def __init__(self) -> None:
        self._last_probe = probe()
        #: Totals of the laps so far: measured, and normalised.
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self._lap_start = time.perf_counter()

    def next_factor(self) -> float:
        """Probe again; the factor for the chunk since the last probe."""
        previous, self._last_probe = self._last_probe, probe()
        return (2.0 * REFERENCE_PROBE_S / (previous + self._last_probe)) ** PROBE_POWER

    def lap(self) -> float:
        """End a chunk that started at the last lap (or at creation):
        probe, add the chunk's time to the totals, and return its factor.
        Probes are not counted in the totals."""
        seconds = time.perf_counter() - self._lap_start
        factor = self.next_factor()
        self.raw_s += seconds
        self.normalised_s += seconds * factor
        self._lap_start = time.perf_counter()
        return factor
