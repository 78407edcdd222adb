"""Tests for the invariant static analyzer (``repro.analysis``).

Coverage contract (see docs/static-analysis.md):

* every rule id in :data:`repro.analysis.rules.RULES` is demonstrated
  by a fixture pair under ``tests/data/analysis_fixtures`` — a minimal
  violation the rule must fire on and a compliant twin it must stay
  silent on;
* analyzer output is a pure function of file *content*, independent of
  file-discovery order (hypothesis property over module permutations);
* the zone map classifies every detected ``CompileTelemetry``
  effort-counter mutator as deterministic-core (found independently by
  AST scan, not by trusting the analyzer's own detection);
* the checked-in baseline is loadable, every entry justified, none
  stale, and the tree-wide gate passes at ``--fail-on error``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisFinding,
    Baseline,
    BaselineEntry,
    RULES,
    Severity,
    Zone,
    analyze_tree,
    default_config,
    discover_modules,
    zone_map_payload,
)
from repro.analysis.baseline import BaselineError
from repro.analysis.callgraph import MODULE_BODY
from repro.analysis.runner import (
    EFFORT_FIELDS,
    config_for_fixture,
    default_baseline_path,
)
from repro.analysis.__main__ import main as analysis_main

FIXTURE_ROOT = Path(__file__).resolve().parent / "data" / "analysis_fixtures"

#: rule id -> (violating fixture module, compliant twin) — both under
#: the synthetic ``fx`` package rooted at FIXTURE_ROOT.
FIXTURE_PAIRS: dict[str, tuple[str, str]] = {
    "D-WALLCLOCK": ("d_wallclock_bad", "d_wallclock_good"),
    "D-RNG": ("d_rng_bad", "d_rng_good"),
    "D-SETITER": ("d_setiter_bad", "d_setiter_good"),
    "D-DICTPOP": ("d_dictpop_bad", "d_dictpop_good"),
    "D-ENV": ("d_env_bad", "d_env_good"),
    "A-BLOCKING": ("a_blocking_bad", "a_blocking_good"),
    "A-AWAIT-LOCK": ("a_await_lock_bad", "a_await_lock_good"),
    "F-ATOMIC": ("f_atomic_bad", "f_atomic_good"),
    "F-APPEND": ("f_append_bad", "f_append_good"),
    "K-FORK-STATE": ("k_fork_state_bad", "k_fork_state_good"),
    "K-FORK-LOCK": ("k_fork_lock_bad", "k_fork_lock_good"),
}


def _fixture_config():
    d_modules = sorted(
        m for pair in FIXTURE_PAIRS.values() for m in pair if m.startswith("d_")
    )
    a_modules = sorted(
        m for pair in FIXTURE_PAIRS.values() for m in pair if m.startswith("a_")
    )
    f_modules = sorted(
        m for pair in FIXTURE_PAIRS.values() for m in pair if m.startswith("f_")
    )
    return config_for_fixture(
        FIXTURE_ROOT,
        "fx",
        deterministic_seeds=tuple(f"fx.{m}:entry" for m in d_modules),
        async_module_prefixes=tuple(f"fx.{m}" for m in a_modules),
        shared_fs_modules=tuple(f"fx.{m}" for m in f_modules),
    )


@pytest.fixture(scope="module")
def fixture_result():
    return analyze_tree(config=_fixture_config())


@pytest.fixture(scope="module")
def tree_result():
    """One tree-wide run over the real repro package, shared by the
    gate and zone-map tests."""
    baseline = Baseline.load(default_baseline_path())
    return analyze_tree(config=default_config(), baseline=baseline)


# --------------------------------------------------------------------------
# Per-rule fixture pairs
# --------------------------------------------------------------------------


def test_every_rule_has_a_fixture_pair():
    assert set(FIXTURE_PAIRS) == set(RULES)


def test_fixture_modules_all_discovered(fixture_result):
    names = {m.name for m in fixture_result.modules}
    expected = {f"fx.{m}" for pair in FIXTURE_PAIRS.values() for m in pair}
    assert expected <= names


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_PAIRS))
def test_rule_fires_on_violation_and_not_on_twin(rule_id, fixture_result):
    bad, good = FIXTURE_PAIRS[rule_id]
    by_module = {}
    for finding in fixture_result.findings:
        by_module.setdefault((finding.rule, finding.module), []).append(finding)
    fired = by_module.get((rule_id, f"fx.{bad}"), [])
    assert fired, f"{rule_id} did not fire on fx.{bad}"
    silent = by_module.get((rule_id, f"fx.{good}"), [])
    assert not silent, f"{rule_id} fired on compliant twin fx.{good}: {silent}"


def test_findings_carry_spans_and_zones(fixture_result):
    for finding in fixture_result.findings:
        assert finding.rule in RULES
        assert finding.line >= 1
        assert finding.col >= 0
        assert finding.zone == RULES[finding.rule].zone.value
        assert finding.path.endswith(".py")


def test_wallclock_finding_fires_in_callee_with_trace(fixture_result):
    """The call graph matters: time.time() lives in ``stamp()``, which
    is only deterministic-core because ``entry()`` calls it."""
    hits = [
        f
        for f in fixture_result.findings
        if f.rule == "D-WALLCLOCK" and f.module == "fx.d_wallclock_bad"
    ]
    assert hits
    (finding,) = hits
    assert finding.function == "stamp"
    assert finding.trace == (
        "fx.d_wallclock_bad:entry",
        "fx.d_wallclock_bad:stamp",
    )


def test_async_blocking_fires_in_sync_helper_reached_from_coroutine(fixture_result):
    hits = {
        f.function
        for f in fixture_result.findings
        if f.rule == "A-BLOCKING" and f.module == "fx.a_blocking_bad"
    }
    # time.sleep in the coroutine itself AND open() in the sync helper
    # it calls — the helper is pulled into the async zone by the edge.
    assert hits == {"handle", "read_file"}


def test_offloaded_helper_stays_out_of_async_zone(fixture_result):
    """``asyncio.to_thread(read_file, ...)`` passes a reference, not a
    call — the helper's file IO must not be flagged."""
    key = "fx.a_blocking_good:read_file"
    assert not fixture_result.zone_map.in_zone(key, Zone.ASYNC_HANDLER)


def test_fork_rules_report_module_scope(fixture_result):
    for rule_id in ("K-FORK-STATE", "K-FORK-LOCK"):
        bad, _ = FIXTURE_PAIRS[rule_id]
        hits = [
            f
            for f in fixture_result.findings
            if f.rule == rule_id and f.module == f"fx.{bad}"
        ]
        assert hits
        assert all(f.function == MODULE_BODY for f in hits)
        assert all("work" in f.message for f in hits)


# --------------------------------------------------------------------------
# Discovery-order independence (hypothesis)
# --------------------------------------------------------------------------


def _canonical_modules():
    config = _fixture_config()
    return config, discover_modules(config.root, config.package)


_CANONICAL_CONFIG, _CANONICAL_MODULES = _canonical_modules()
_CANONICAL_JSON = json.dumps(
    analyze_tree(config=_CANONICAL_CONFIG, modules=list(_CANONICAL_MODULES)).to_json(),
    sort_keys=True,
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perm=st.permutations(_CANONICAL_MODULES))
def test_output_independent_of_discovery_order(perm):
    result = analyze_tree(config=_CANONICAL_CONFIG, modules=list(perm))
    assert json.dumps(result.to_json(), sort_keys=True) == _CANONICAL_JSON


def test_zone_map_payload_independent_of_discovery_order(fixture_result):
    reordered = analyze_tree(
        config=_CANONICAL_CONFIG, modules=list(reversed(_CANONICAL_MODULES))
    )
    assert zone_map_payload(reordered) == zone_map_payload(fixture_result)


# --------------------------------------------------------------------------
# Zone map: effort-counter mutators are deterministic-core
# --------------------------------------------------------------------------


def _scan_effort_mutators(root: Path, package: str) -> set[str]:
    """Independent ground truth: AST-scan the real tree for functions
    containing an attribute store to any effort-counter field."""
    mutators: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        parts = (package, *rel.with_suffix("").parts)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack: list[tuple[ast.AST, tuple[str, ...]]] = [(tree, ())]
        while stack:
            node, qual = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stack.append((child, qual + (child.name,)))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, qual + (child.name,)))
                else:
                    stack.append((child, qual))
            if isinstance(node, (ast.Attribute, ast.AugAssign)):
                targets = []
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    targets = [node.attr]
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Attribute
                ):
                    targets = [node.target.attr]
                if qual and any(t in EFFORT_FIELDS for t in targets):
                    mutators.add(f"{module}:{'.'.join(qual)}")
    return mutators


def test_effort_mutators_are_deterministic_core(tree_result):
    config = tree_result.config
    expected = _scan_effort_mutators(Path(config.root), config.package)
    assert expected, "no effort-counter mutators found — scan is broken"
    payload = zone_map_payload(tree_result)
    assert set(payload["effort_mutators"]) >= expected
    functions = payload["functions"]
    for key in sorted(expected):
        assert key in functions, f"{key} missing from zone map"
        assert Zone.DETERMINISTIC_CORE.value in functions[key]["zones"], (
            f"effort-counter mutator {key} is not classified deterministic-core"
        )


def test_effort_producers_are_deterministic_core(tree_result):
    # The KL cost model and packer increment the counters the registry
    # reads (``n_probes``, ``n_bin_packs``, ``n_repacks``), and the bins
    # compute the costs they count; the telemetry fold sums them into a
    # dict and is a configured seed.
    functions = zone_map_payload(tree_result)["functions"]
    for key in (
        "repro.vectorize.partition:PartitionCostModel.probe_cost",
        "repro.vectorize.partition:PartitionCostModel.bin_pack",
        "repro.vectorize.partition:IncrementalPacker.repack",
        "repro.vectorize.bins:Bins.probe",
        "repro.vectorize.bins:Bins.replay",
        "repro.vectorize.bins:_pack",
        "repro.evaluation.experiments:CompileTelemetry.absorb",
    ):
        assert key in functions, f"{key} missing from zone map"
        assert Zone.DETERMINISTIC_CORE.value in functions[key]["zones"], key


def test_back_end_kernels_are_deterministic_core(tree_result):
    # The per-unit back end decides every II, schedule and cleanup
    # length.  The dependence classification and the component order run
    # on property reads, which the call graph does not follow, so they
    # are configured seeds; Tarjan and the SCC safety test are
    # deterministic-core through the classification.
    functions = zone_map_payload(tree_result)["functions"]
    for key in (
        "repro.dependence.analysis:build_dependence_graph",
        "repro.dependence.analysis:classify_operations",
        "repro.dependence.analysis:ordered_components",
        "repro.dependence.scc:tarjan_sccs",
        "repro.dependence.scc:scc_membership",
        "repro.dependence.analysis:_scc_safe_for_vectorization",
        "repro.pipeline.mii:rec_mii",
        "repro.pipeline.mii:res_mii",
        "repro.pipeline.mii:_extract_cycle_edges",
        "repro.pipeline.list_schedule:list_schedule_length",
        "repro.pipeline.scheduler:_check_schedule",
        "repro.regalloc.allocator:_allocate_kernel",
        "repro.regalloc.allocator:_max_live",
    ):
        assert key in functions, f"{key} missing from zone map"
        assert Zone.DETERMINISTIC_CORE.value in functions[key]["zones"], key


def test_pool_workers_are_fork_worker_zone(tree_result):
    # Every pool comes from ``fork_pool``; each worker function stays
    # named at its ``pool.map``, ``pool.submit`` or ``run_in_executor``
    # call site, which is how the K-* rules find forked code.
    functions = zone_map_payload(tree_result)["functions"]
    for key in (
        "repro.evaluation.experiments:_timed_compile_job",
        "repro.sweep.runner:_run_shard",
        "repro.serve.server:_compile_batch_worker",
    ):
        assert key in functions, f"{key} missing from zone map"
        assert Zone.FORK_WORKER.value in functions[key]["zones"], key


def test_zone_map_payload_shape(tree_result):
    payload = zone_map_payload(tree_result)
    assert payload["version"] == 1
    assert payload["package"] == "repro"
    assert list(payload["effort_fields"]) == list(EFFORT_FIELDS)
    for key, entry in payload["functions"].items():
        assert ":" in key
        assert entry["zones"] == sorted(entry["zones"])
        assert set(entry["reasons"]) == set(entry["zones"])


# --------------------------------------------------------------------------
# Baseline mechanics
# --------------------------------------------------------------------------


def _finding(rule="D-WALLCLOCK", module="m", function="f") -> AnalysisFinding:
    return AnalysisFinding(
        rule=rule,
        severity=RULES[rule].severity,
        module=module,
        function=function,
        path="m.py",
        line=3,
        col=0,
        zone=RULES[rule].zone.value,
        message="synthetic",
        trace=(),
    )


def test_baseline_rejects_empty_reason(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {"rule": "D-RNG", "module": "m", "function": "f", "reason": "  "}
                ],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(BaselineError, match="empty reason"):
        Baseline.load(path)


def test_baseline_rejects_missing_fields_and_bad_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 2, "entries": []}), encoding="utf-8")
    with pytest.raises(BaselineError, match="version"):
        Baseline.load(path)
    path.write_text(
        json.dumps({"version": 1, "entries": [{"rule": "D-RNG"}]}), encoding="utf-8"
    )
    with pytest.raises(BaselineError, match="missing"):
        Baseline.load(path)


def test_baseline_apply_splits_and_reports_stale():
    waived = BaselineEntry("D-WALLCLOCK", "m", "f", "deliberate")
    stale = BaselineEntry("D-RNG", "gone", "g", "was fixed")
    baseline = Baseline(entries=[waived, stale])
    findings = [_finding(), _finding(module="other")]
    unbaselined, baselined, stale_out = baseline.apply(findings)
    assert [f.module for f in unbaselined] == ["other"]
    assert [(f.module, e.reason) for f, e in baselined] == [("m", "deliberate")]
    assert stale_out == [stale]


def test_baseline_roundtrip(tmp_path):
    baseline = Baseline(entries=[BaselineEntry("F-ATOMIC", "m", "f", "why")])
    path = tmp_path / "b.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == baseline.entries


# --------------------------------------------------------------------------
# Tree-wide gate and CLI
# --------------------------------------------------------------------------


def test_checked_in_baseline_gate_is_clean(tree_result):
    assert tree_result.gate_failures("error") == []
    assert tree_result.stale_entries == []
    assert all(e.reason.strip() for _, e in tree_result.baselined)


def test_severity_gating_thresholds(tree_result):
    assert tree_result.gate_failures("never") == []
    # every current rule is ERROR, so widening the threshold cannot
    # produce fewer failures than the error gate
    assert len(tree_result.gate_failures("info")) >= len(
        tree_result.gate_failures("error")
    )
    assert Severity("error").rank < Severity("info").rank


def test_cli_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_gate_passes_with_baseline(capsys):
    assert analysis_main(["--fail-on", "error"]) == 0
    out = capsys.readouterr().out
    assert "analysis gate: OK" in out


def test_cli_no_baseline_fails_then_never_passes(capsys):
    assert analysis_main(["--no-baseline", "--fail-on", "error"]) == 1
    assert analysis_main(["--no-baseline", "--fail-on", "never"]) == 0
    capsys.readouterr()


def test_cli_json_output_and_zone_map(tmp_path, capsys):
    zone_path = tmp_path / "zones.json"
    code = analysis_main(["--format", "json", "--zone-map", str(zone_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["unbaselined"] == 0
    zones = json.loads(zone_path.read_text(encoding="utf-8"))
    assert zones["version"] == 1
    assert zones["functions"]


def test_cli_malformed_baseline_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert analysis_main(["--baseline", str(path)]) == 2
    assert "cannot load baseline" in capsys.readouterr().err
