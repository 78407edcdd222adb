"""The exact-optimality oracle: branch-and-bound partitioning,
exhaustive modulo scheduling, and the optimality-gap harness."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.__main__ import main as compiler_main
from repro.compiler.driver import compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.evaluation import bench_io
from repro.evaluation.__main__ import main as evaluation_main
from repro.machine.configs import figure1_machine, paper_machine
from repro.observability.recorder import recording
from repro.oracle import (
    BOUNDED,
    CERTIFIED,
    TIMEOUT,
    BudgetMeter,
    OracleBudget,
)
from repro.oracle.exact_partition import (
    enumerate_partitions,
    exact_partition,
)
from repro.oracle.exact_schedule import _feasible_at, certify_schedule
from repro.oracle.gap import (
    certify_compiled,
    certify_loop,
    oracle_gap_report,
    render_certificate,
    render_gap_table,
)
from repro.pipeline.mii import edge_delays, minimum_ii
from repro.workloads.generator import GENERATORS, generate
from repro.workloads.kernels import dot_product

PAPER = paper_machine()

small_loops = st.builds(
    generate,
    archetype=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 5_000),
).filter(lambda loop: len(loop.body) <= 12)


# ----------------------------------------------------------------------
# Branch-and-bound partition oracle


@settings(max_examples=25, deadline=None)
@given(loop=small_loops)
def test_bnb_matches_exhaustive_enumeration(loop):
    """On every small loop the branch-and-bound optimum equals the
    brute-force enumeration optimum, the certificate is exact
    (lower bound meets best cost), and the KL heuristic's cost sits
    within the gap the oracle reports."""
    dep = analyze_loop(loop, PAPER.vector_length)
    brute, evaluated = enumerate_partitions(dep, PAPER)
    result = exact_partition(
        dep, PAPER, budget=OracleBudget(max_nodes=None, max_seconds=None)
    )
    assert result.status == CERTIFIED
    assert result.best_cost == brute
    assert result.lower_bound == result.best_cost

    compiled = compile_loop(loop, PAPER, Strategy.SELECTIVE)
    if compiled.partition is not None:
        assert compiled.partition.cost >= result.best_cost
        warm = exact_partition(
            dep,
            PAPER,
            budget=OracleBudget(max_nodes=None, max_seconds=None),
            incumbent=compiled.partition,
        )
        assert warm.best_cost == brute
        assert warm.kl_gap == compiled.partition.cost - brute
        assert warm.kl_gap >= 0


def test_partition_oracle_certifies_dot_product_on_toy_machine():
    toy = figure1_machine()
    loop = dot_product()
    dep = analyze_loop(loop, toy.vector_length)
    result = exact_partition(dep, toy)
    assert result.status == CERTIFIED
    brute, _ = enumerate_partitions(dep, toy)
    assert result.best_cost == brute


def test_partition_oracle_budget_exhaustion_is_sound():
    """A starved search degrades to ``bounded`` with a true interval —
    it never claims a certificate."""
    loop = generate("mixed", 0)
    dep = analyze_loop(loop, PAPER.vector_length)
    starved = exact_partition(dep, PAPER, budget=OracleBudget(max_nodes=1))
    assert starved.status == BOUNDED
    assert starved.lower_bound <= starved.best_cost
    full = exact_partition(
        dep, PAPER, budget=OracleBudget(max_nodes=None, max_seconds=None)
    )
    assert full.status == CERTIFIED
    assert starved.lower_bound <= full.best_cost <= starved.best_cost


# ----------------------------------------------------------------------
# Exact modulo scheduling


def _selective_unit(loop, machine):
    compiled = compile_loop(loop, machine, Strategy.SELECTIVE)
    unit = compiled.units[0]
    udep = analyze_loop(unit.transform.loop, machine.vector_length)
    return compiled, unit, udep


def test_schedule_oracle_certifies_achieved_mii():
    """achieved == MII needs no search: the heuristic schedule is the
    witness."""
    _, unit, udep = _selective_unit(dot_product(), figure1_machine())
    result = certify_schedule(
        unit.transform.loop, udep.graph, figure1_machine(), unit.schedule.ii
    )
    assert result.status == CERTIFIED
    assert result.certified_ii == unit.schedule.ii
    assert result.ii_gap == 0


def test_schedule_oracle_proves_sub_mii_infeasible():
    """Every II below ResMII is infeasible; the prover must say so, not
    give up."""
    machine = figure1_machine()
    _, unit, udep = _selective_unit(dot_product(), machine)
    delays = edge_delays(udep.graph, machine)
    mii, _, _ = minimum_ii(unit.transform.loop, udep.graph, machine)
    assert mii > 1
    meter = BudgetMeter(OracleBudget(max_nodes=None, max_seconds=None))
    feasible, times = _feasible_at(
        unit.transform.loop, udep.graph, machine, mii - 1, delays, meter
    )
    assert feasible is False
    assert times is None


def test_schedule_oracle_witness_respects_dependences():
    """A feasible verdict comes with a validated witness schedule."""
    machine = figure1_machine()
    _, unit, udep = _selective_unit(dot_product(), machine)
    delays = edge_delays(udep.graph, machine)
    meter = BudgetMeter(OracleBudget(max_nodes=None, max_seconds=None))
    ii = unit.schedule.ii
    feasible, times = _feasible_at(
        unit.transform.loop, udep.graph, machine, ii, delays, meter
    )
    assert feasible is True
    for edge in udep.graph.edges:
        assert (
            times[edge.dst] + ii * edge.distance
            >= times[edge.src] + delays[edge]
        )


def test_schedule_oracle_finds_slack_in_padded_ii():
    """Handed an achieved II above the optimum, the oracle exhibits the
    better schedule (nonzero gap + witness)."""
    machine = figure1_machine()
    _, unit, udep = _selective_unit(dot_product(), machine)
    padded = unit.schedule.ii + 2
    result = certify_schedule(
        unit.transform.loop, udep.graph, machine, padded
    )
    assert result.status == CERTIFIED
    assert result.certified_ii == unit.schedule.ii
    assert result.ii_gap == 2
    assert result.witness is not None


def test_schedule_oracle_budget_starvation_reports_bounded():
    machine = figure1_machine()
    _, unit, udep = _selective_unit(dot_product(), machine)
    result = certify_schedule(
        unit.transform.loop,
        udep.graph,
        machine,
        unit.schedule.ii + 2,
        budget=OracleBudget(max_nodes=1),
    )
    assert result.status in (BOUNDED, TIMEOUT)
    assert result.certified_ii is None
    assert result.ii_gap is None
    assert result.ii_lower_bound >= result.mii


# ----------------------------------------------------------------------
# The gap harness


def test_figure1_dot_product_certified_optimal():
    """The acceptance criterion: selective II/iteration = 1.0 on the
    Figure 1 machine is certified optimal with zero KL gap."""
    cert = certify_loop(dot_product(), figure1_machine())
    assert cert.status == CERTIFIED
    assert cert.kl_gap == 0
    assert cert.ii_gap == 0
    assert cert.achieved_ii_per_iteration == pytest.approx(1.0)
    assert cert.certified_ii_per_iteration == pytest.approx(1.0)
    text = render_certificate(cert)
    assert "optimal" in text


def test_certification_is_observe_only():
    """Certifying never alters the compiled artifact."""
    loop = generate("reduction", 1)
    compiled = compile_loop(loop, PAPER, Strategy.SELECTIVE)
    before = (
        dict(compiled.partition.assignment),
        compiled.partition.cost,
        [(u.transform.loop.name, u.schedule.ii, dict(u.schedule.times))
         for u in compiled.units],
    )
    certify_compiled(loop, PAPER, compiled)
    after = (
        dict(compiled.partition.assignment),
        compiled.partition.cost,
        [(u.transform.loop.name, u.schedule.ii, dict(u.schedule.times))
         for u in compiled.units],
    )
    assert before == after


def test_unfinished_certificate_leaves_a_remark():
    """Budget exhaustion is recorded as an ``oracle`` remark, not lost."""
    loop = generate("mixed", 0)
    compiled = compile_loop(loop, PAPER, Strategy.SELECTIVE)
    with recording() as rec:
        cert = certify_compiled(
            loop, PAPER, compiled, budget=OracleBudget(max_nodes=1)
        )
    assert cert.status in (BOUNDED, TIMEOUT)
    remarks = rec.remarks.select(loop=loop.name, pass_name="oracle")
    assert any(
        r.reason in ("partition-unfinished", "ii-unfinished")
        for r in remarks
    )


def test_gap_report_payload_and_gate(tmp_path):
    suite = [(dot_product(), figure1_machine())]
    payload = oracle_gap_report(suite=suite)
    assert payload["schema_version"] == bench_io.BENCH_SCHEMA_VERSION
    assert payload["experiment"] == "oracle_gap"
    summary = payload["data"]["summary"]
    assert summary["loops"] == 1
    assert summary["certified"] == 1
    assert summary["kl_gap_zero"] == 1
    assert bench_io.oracle_gap_regressions(payload) == []
    assert "dot_product" in render_gap_table(payload)
    path = bench_io.write_bench_json("oracle_gap", payload, str(tmp_path))
    assert path.endswith("BENCH_oracle_gap.json")


def test_gap_gate_flags_certified_gaps():
    payload = {
        "data": {
            "loops": {
                "bad": {
                    "partition": {"status": "certified", "kl_gap": 1},
                    "units": {
                        "bad.sel": {"status": "certified", "ii_gap": 2},
                        "bad.vec": {"status": "bounded", "ii_gap": None},
                    },
                },
                "slow": {
                    "partition": {"status": "timeout", "kl_gap": 3},
                    "units": {},
                },
            }
        }
    }
    regressions = bench_io.oracle_gap_regressions(payload)
    metrics = {r.metric for r in regressions}
    assert metrics == {"bad/kl_gap", "bad.sel/ii_gap"}
    assert "2 certified gap(s)" in bench_io.render_oracle_gap_gate(regressions)


# ----------------------------------------------------------------------
# The KL second witness


def test_kl_verify_runs_oracle_second_witness(monkeypatch):
    monkeypatch.setenv("REPRO_KL_VERIFY", "1")
    with recording() as rec:
        compile_loop(dot_product(), PAPER, Strategy.SELECTIVE)
    assert rec.counter("oracle.partition_runs") >= 1


# ----------------------------------------------------------------------
# CLI surfaces


DSL = """
loop oracle_demo
array x(2048), y(2048)
carry s = 0.0
do i
    t = x(i) * y(i)
    s = s + t
end
result s
"""


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "kernel.loop"
    path.write_text(DSL)
    return str(path)


class TestOracleCLI:
    def test_compiler_oracle_flag(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--machine", "toy", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle certificate for oracle_demo" in out
        assert "partition: KL cost" in out

    def test_compiler_oracle_flag_with_budget(self, dsl_file, capsys):
        assert (
            compiler_main([dsl_file, "--machine", "toy", "--oracle", "5000"])
            == 0
        )
        assert "oracle certificate" in capsys.readouterr().out

    def test_explain_with_oracle_section(self, dsl_file, capsys):
        assert (
            compiler_main(
                [dsl_file, "--machine", "toy", "--explain", "--oracle"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "== optimality certificates ==" in out
        assert "[partition-optimal]" in out or "[partition-" in out

    def test_explain_without_oracle_has_no_section(self, dsl_file, capsys):
        assert compiler_main([dsl_file, "--machine", "toy", "--explain"]) == 0
        assert "optimality certificates" not in capsys.readouterr().out

    def test_evaluation_oracle_gap(self, tmp_path, capsys):
        assert (
            evaluation_main(["--oracle-gap", "--bench-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "oracle gate: OK" in out
        assert (tmp_path / "BENCH_oracle_gap.json").exists()
