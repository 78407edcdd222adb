"""Taint-style zone classification over the call graph.

A *zone* is a region of the codebase carrying an obligation:

* ``deterministic-core`` — everything reachable from the configured
  determinism seeds (the pure compile entry point, cache-key and
  content-digest construction, canonical BENCH payload builders) plus
  every function that stores to an effort-counter attribute.
  Obligation: no wall clock, no unseeded RNG, no set-order leaks, no
  env-dependent values — the ``D-*`` rules.
* ``async-handler`` — every coroutine defined in the configured async
  modules (``repro.serve``) plus the sync functions they call
  directly.  Obligation: no blocking calls on the event loop — the
  ``A-*`` rules.  Function refs dispatched via ``asyncio.to_thread`` /
  ``run_in_executor`` are *not* call edges, so offloaded work stays
  out of this zone by construction.
* ``fork-worker`` — functions submitted to a worker pool plus their
  callees; their *modules* must not rely on mutable module-level state
  or locks across the fork boundary — the ``K-*`` rules.
* ``shared-filesystem-writer`` — functions in the modules that own the
  shared on-disk protocols (compile cache, artifact store, ledger,
  sweep manifest, BENCH artifacts).  Obligation: every write is
  tempfile+``os.replace`` or a single ``O_APPEND`` write — the ``F-*``
  rules.

Classification is by BFS reachability over internal call edges, and
each membership records *why* (seed kind, or the immediate caller that
pulled the function in) so findings can print the chain and the zone
map artifact stays reviewable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.callgraph import MODULE_BODY, CallGraph, FuncKey


class Zone(enum.Enum):
    DETERMINISTIC_CORE = "deterministic-core"
    ASYNC_HANDLER = "async-handler"
    FORK_WORKER = "fork-worker"
    SHARED_FS = "shared-filesystem-writer"


@dataclass(frozen=True)
class ZoneSeeds:
    """Where each zone starts; see :class:`repro.analysis.runner.AnalysisConfig`."""

    deterministic: tuple[FuncKey, ...] = ()
    effort_fields: tuple[str, ...] = ()
    async_module_prefixes: tuple[str, ...] = ()
    shared_fs_modules: tuple[str, ...] = ()


@dataclass
class ZoneMap:
    """function key -> zones (+ the reason for each membership)."""

    zones: dict[FuncKey, dict[Zone, str]] = field(default_factory=dict)
    #: zone -> parent map from the BFS (for building traces)
    parents: dict[Zone, dict[FuncKey, FuncKey | None]] = field(default_factory=dict)
    #: functions detected as effort-counter mutators (determinism seeds)
    effort_mutators: tuple[FuncKey, ...] = ()

    def members(self, zone: Zone) -> list[FuncKey]:
        return sorted(k for k, zs in self.zones.items() if zone in zs)

    def in_zone(self, key: FuncKey, zone: Zone) -> bool:
        return zone in self.zones.get(key, {})

    def _mark(self, key: FuncKey, zone: Zone, reason: str) -> None:
        self.zones.setdefault(key, {}).setdefault(zone, reason)


def classify_zones(graph: CallGraph, seeds: ZoneSeeds) -> ZoneMap:
    """Classify every function in the graph into its zones."""
    zone_map = ZoneMap()

    # --- deterministic-core: configured seeds + effort mutators -------
    mutators = sorted(
        info.key
        for info in graph.functions.values()
        if info.qualname != MODULE_BODY
        and any(f in info.attr_stores for f in seeds.effort_fields)
    )
    zone_map.effort_mutators = tuple(mutators)
    det_seeds = sorted(set(seeds.deterministic) | set(mutators))
    det_parent = graph.reachable(det_seeds)
    zone_map.parents[Zone.DETERMINISTIC_CORE] = det_parent
    for key, parent in sorted(det_parent.items()):
        if parent is None:
            reason = (
                "seed:effort-mutator"
                if key in mutators and key not in seeds.deterministic
                else "seed:configured"
            )
        else:
            reason = f"called from {parent}"
        zone_map._mark(key, Zone.DETERMINISTIC_CORE, reason)

    # --- async-handler: coroutines in async modules + sync callees ----
    async_seeds = sorted(
        info.key
        for info in graph.functions.values()
        if info.is_async
        and any(
            info.module == p or info.module.startswith(p + ".")
            for p in seeds.async_module_prefixes
        )
    )
    async_parent = graph.reachable(async_seeds)
    zone_map.parents[Zone.ASYNC_HANDLER] = async_parent
    for key, parent in sorted(async_parent.items()):
        reason = "seed:coroutine" if parent is None else f"called from {parent}"
        zone_map._mark(key, Zone.ASYNC_HANDLER, reason)

    # --- fork-worker: submitted refs + callees ------------------------
    fork_seeds = sorted(
        {ref for info in graph.functions.values() for ref in info.submitted}
        & set(graph.functions)
    )
    fork_parent = graph.reachable(fork_seeds)
    zone_map.parents[Zone.FORK_WORKER] = fork_parent
    for key, parent in sorted(fork_parent.items()):
        reason = "seed:pool-submitted" if parent is None else f"called from {parent}"
        zone_map._mark(key, Zone.FORK_WORKER, reason)

    # --- shared-filesystem-writer: whole configured modules -----------
    shared = set(seeds.shared_fs_modules)
    for key, info in sorted(graph.functions.items()):
        if info.module in shared:
            zone_map._mark(key, Zone.SHARED_FS, "seed:shared-fs-module")

    return zone_map


def zone_trace(zone_map: ZoneMap, graph: CallGraph, key: FuncKey, zone: Zone) -> tuple[str, ...]:
    """The seed -> ... -> function chain that put ``key`` in ``zone``."""
    parent = zone_map.parents.get(zone)
    if parent is None or key not in parent:
        return ()
    return graph.trace(parent, key)
