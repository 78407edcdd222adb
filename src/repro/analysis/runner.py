"""Orchestration: discover -> call graph -> zones -> rules -> baseline.

:func:`analyze_tree` is the one entry point the CLI, the tests, and CI
share.  :func:`default_config` encodes the repro tree's own zone seeds:

* the deterministic core is rooted at the pure compile entry point
  (:func:`repro.compiler.service.compile_one`), cache-key construction,
  ledger content digests, the canonical BENCH payload builders,
  ``CompileTelemetry.absorb``, the ``Bins`` calls that price KL moves
  and the dependence classification that property reads trigger — plus
  every detected effort-counter mutator (a store to a
  :data:`EFFORT_FIELDS` attribute);
* the async zone is everything coroutine-shaped under ``repro.serve``;
* the shared-filesystem zone is the modules owning on-disk protocols
  shared between processes (compile cache, artifact store, ledger,
  sweep manifest/shards, BENCH artifacts);
* the fork zone is discovered, not configured (pool submissions).

The zone-map artifact (:func:`zone_map_payload`) is machine-readable
and canonical (sorted keys) so tests can assert zone membership — in
particular that every effort-counter mutator is deterministic-core —
and future PRs can diff zone drift in review.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import repro
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.findings import AnalysisFinding, Severity, sort_findings
from repro.analysis.modules import ModuleInfo, discover_modules
from repro.analysis.rules import RULES, run_rules
from repro.analysis.zones import Zone, ZoneMap, ZoneSeeds, classify_zones
from repro.observability.effort import EFFORT

ZONE_MAP_VERSION = 1

#: Attribute names whose stores mark a function as an effort-counter
#: mutator: every registry counter's name and the attribute it is
#: counted in (``n_probes``, ``n_bin_packs``, ...), so the code that
#: does the counting is deterministic-core.  Wall and cache fields are
#: not effort: mutating those is not a determinism obligation.
EFFORT_FIELDS = tuple(c.name for c in EFFORT) + tuple(c.source for c in EFFORT)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything that parameterizes one analysis run."""

    root: str
    package: str
    deterministic_seeds: tuple[str, ...] = ()
    effort_fields: tuple[str, ...] = EFFORT_FIELDS
    async_module_prefixes: tuple[str, ...] = ()
    shared_fs_modules: tuple[str, ...] = ()

    def seeds(self) -> ZoneSeeds:
        return ZoneSeeds(
            deterministic=self.deterministic_seeds,
            effort_fields=self.effort_fields,
            async_module_prefixes=self.async_module_prefixes,
            shared_fs_modules=self.shared_fs_modules,
        )


def repo_root() -> Path:
    """The repository root, derived from the installed source tree."""
    return Path(repro.__file__).resolve().parents[2]


def default_config() -> AnalysisConfig:
    """The repro tree's own invariant surface."""
    return AnalysisConfig(
        root=str(Path(repro.__file__).resolve().parent),
        package="repro",
        deterministic_seeds=(
            # The pure compile function and its wire shape.
            "repro.compiler.service:compile_one",
            "repro.compiler.service:CompiledLoopPayload.summary",
            "repro.compiler.service:effort_counters",
            # Folds effort into a dict, which no attribute store shows.
            "repro.evaluation.experiments:CompileTelemetry.absorb",
            # Compute the KL costs the effort counters count, called on a
            # ``Bins`` receiver the call graph does not resolve.
            "repro.vectorize.bins:Bins.probe",
            "repro.vectorize.bins:Bins.replay",
            # Decide every modulo placement, called on a reservation table
            # the call graph does not resolve either.
            "repro.pipeline.reservation:ModuloReservationTable.probe_spec",
            "repro.pipeline.reservation:ModuloReservationTable.free_rows",
            "repro.pipeline.reservation:ModuloReservationTable.first_fit",
            # Run on the first read of a LoopDependence's classification
            # or component order; the call graph does not follow property
            # reads.
            "repro.dependence.analysis:classify_operations",
            "repro.dependence.analysis:ordered_components",
            # Content-addressed cache keys.
            "repro.compiler.service:CompileRequest.cache_key",
            "repro.evaluation.compile_cache:cache_key",
            # Cross-run equality: ledger digests and comparable views.
            "repro.ledger.record:RunRecord.content_digest",
            "repro.ledger.record:RunRecord.comparable_dict",
            # BENCH payload construction.
            "repro.evaluation.bench_io:telemetry_payload",
            "repro.evaluation.bench_io:compile_perf_payload",
            "repro.evaluation.bench_io:payload_for",
        ),
        async_module_prefixes=("repro.serve",),
        shared_fs_modules=(
            "repro.evaluation.compile_cache",
            "repro.evaluation.bench_io",
            "repro.ledger.store",
            "repro.serve.store",
            "repro.sweep.manifest",
            "repro.sweep.runner",
        ),
    )


def default_baseline_path() -> Path:
    return repo_root() / "analysis" / "baseline.json"


@dataclass
class AnalysisResult:
    """One tree-wide analysis run."""

    config: AnalysisConfig
    modules: list[ModuleInfo]
    graph: CallGraph
    zone_map: ZoneMap
    findings: list[AnalysisFinding]  # all, pre-baseline, sorted
    unbaselined: list[AnalysisFinding]
    baselined: list[tuple[AnalysisFinding, BaselineEntry]]
    stale_entries: list[BaselineEntry]
    baseline_path: str = ""

    @property
    def function_count(self) -> int:
        return len(self.graph.functions)

    def gate_failures(self, fail_on: str) -> list[AnalysisFinding]:
        """Unbaselined findings at or above the gating severity."""
        if fail_on == "never":
            return []
        threshold = Severity(fail_on).rank
        return [f for f in self.unbaselined if f.severity.rank <= threshold]

    def summary(self, fail_on: str = "error") -> str:
        failures = self.gate_failures(fail_on)
        status = "OK" if not failures else "FAIL"
        return (
            f"analysis gate: {status} ({len(failures)} unbaselined finding(s) "
            f"at --fail-on {fail_on}; {len(self.baselined)} baselined, "
            f"{len(self.stale_entries)} stale baseline entr(ies), "
            f"{len(self.modules)} modules, {self.function_count} functions)"
        )

    def to_json(self) -> dict[str, object]:
        return {
            "summary": {
                "modules": len(self.modules),
                "functions": self.function_count,
                "findings": len(self.findings),
                "unbaselined": len(self.unbaselined),
                "baselined": len(self.baselined),
                "stale_baseline_entries": len(self.stale_entries),
            },
            "unbaselined": [f.to_json() for f in self.unbaselined],
            "baselined": [
                {"finding": f.to_json(), "reason": e.reason}
                for f, e in self.baselined
            ],
            "stale_baseline_entries": [e.to_json() for e in self.stale_entries],
        }


def analyze_tree(
    config: AnalysisConfig | None = None,
    baseline: Baseline | None = None,
    modules: list[ModuleInfo] | None = None,
) -> AnalysisResult:
    """Run the whole pipeline; ``modules`` override supports the
    discovery-order-independence property test."""
    if config is None:
        config = default_config()
    if modules is None:
        modules = discover_modules(config.root, config.package)
    graph = build_call_graph(modules)
    zone_map = classify_zones(graph, config.seeds())
    findings = sort_findings(run_rules(graph, zone_map))
    if baseline is None:
        baseline = Baseline.empty()
    unbaselined, baselined, stale = baseline.apply(findings)
    return AnalysisResult(
        config=config,
        modules=sorted(modules, key=lambda m: m.name),
        graph=graph,
        zone_map=zone_map,
        findings=findings,
        unbaselined=unbaselined,
        baselined=baselined,
        stale_entries=stale,
        baseline_path=baseline.path,
    )


def zone_map_payload(result: AnalysisResult) -> dict[str, object]:
    """The machine-readable zone map artifact (canonical ordering)."""
    zones: dict[str, dict[str, object]] = {}
    for key in sorted(result.zone_map.zones):
        memberships = result.zone_map.zones[key]
        zones[key] = {
            "zones": sorted(z.value for z in memberships),
            "reasons": {z.value: memberships[z] for z in sorted(memberships, key=lambda z: z.value)},
        }
    return {
        "version": ZONE_MAP_VERSION,
        "package": result.config.package,
        "effort_fields": list(result.config.effort_fields),
        "effort_mutators": list(result.zone_map.effort_mutators),
        "functions": zones,
    }


def write_zone_map(result: AnalysisResult, path: str | os.PathLike[str]) -> None:
    payload = zone_map_payload(result)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def config_for_fixture(root: str | os.PathLike[str], package: str, **overrides: object) -> AnalysisConfig:
    """A config rooted at a test fixture tree (helper for the fixture
    twins in ``tests/test_analysis.py``)."""
    base = AnalysisConfig(root=str(root), package=package)
    return replace(base, **overrides)  # type: ignore[arg-type]
