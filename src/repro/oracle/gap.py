"""The optimality-gap harness: heuristics vs the exact oracles.

``certify_loop`` compiles a loop under the selective strategy and then
asks both oracles how much the heuristics left on the table:

* the KL partition cost vs the branch-and-bound optimum ResMII
  (:func:`exact_partition`, warm-started from the KL incumbent);
* the achieved modulo-schedule II of every compiled unit vs the
  certified minimal II (:func:`certify_schedule`).

``oracle_gap_report`` runs this over the Figure 1 dot-product (on the
figure1 machine) plus a deterministic subset of small corpus loops (on
the paper machine), producing the ``BENCH_oracle_gap.json`` payload the
evaluation CLI writes and CI gates on: *on every loop the oracle manages
to certify, the KL gap must be zero*.  Certificates degrade gracefully —
``bounded``/``timeout`` loops are reported, never failed.

With a recorder active, each certificate also lands as ``oracle``
remarks, which is how ``--explain`` grows its certification section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.driver import CompiledLoop, compile_loop
from repro.compiler.strategies import Strategy
from repro.dependence.analysis import analyze_loop
from repro.ir.loop import Loop
from repro.machine.machine import MachineDescription
from repro.oracle import BOUNDED, CERTIFIED, TIMEOUT, OracleBudget
from repro.oracle.exact_partition import PartitionOracleResult, exact_partition
from repro.oracle.exact_schedule import ScheduleOracleResult, certify_schedule
from repro.vectorize.partition import PartitionConfig

#: Corpus-subset selection: loops this small certify in well under the
#: default budget, and ~10 of them keep the CI smoke job quick.
MAX_CORPUS_OPS = 12
CORPUS_LIMIT = 10


@dataclass
class UnitCertificate:
    """Schedule certificate for one compiled unit."""

    name: str
    factor: int
    result: ScheduleOracleResult


@dataclass
class LoopCertificate:
    """Both oracles' verdicts on one compiled loop."""

    loop: str
    machine: str
    ops: int
    partition: PartitionOracleResult | None
    units: list[UnitCertificate] = field(default_factory=list)

    @property
    def status(self) -> str:
        """Worst status across both oracles (certified < bounded < timeout)."""
        statuses = [u.result.status for u in self.units]
        if self.partition is not None:
            statuses.append(self.partition.status)
        for bad in (TIMEOUT, BOUNDED):
            if bad in statuses:
                return bad
        return CERTIFIED

    @property
    def kl_gap(self) -> int | None:
        return self.partition.kl_gap if self.partition is not None else None

    @property
    def achieved_ii_per_iteration(self) -> float:
        return sum(u.result.achieved_ii / u.factor for u in self.units)

    @property
    def certified_ii_per_iteration(self) -> float | None:
        total = 0.0
        for u in self.units:
            if u.result.certified_ii is None:
                return None
            total += u.result.certified_ii / u.factor
        return total

    @property
    def ii_gap(self) -> int | None:
        """Total kernel cycles the scheduler left on the table, or None
        while any unit's certificate is unfinished."""
        total = 0
        for u in self.units:
            if u.result.ii_gap is None:
                return None
            total += u.result.ii_gap
        return total

    def to_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "machine": self.machine,
            "ops": self.ops,
            "status": self.status,
        }
        if self.partition is not None:
            p = self.partition
            row["partition"] = {
                "status": p.status,
                "kl_cost": p.kl_cost,
                "oracle_cost": p.best_cost,
                "lower_bound": p.lower_bound,
                "kl_gap": p.kl_gap,
                "candidates": p.candidates,
                "nodes": p.nodes,
            }
        row["units"] = {
            u.name: {
                "status": u.result.status,
                "mii": u.result.mii,
                "achieved_ii": u.result.achieved_ii,
                "certified_ii": u.result.certified_ii,
                "ii_gap": u.result.ii_gap,
                "infeasible_iis": list(u.result.infeasible_iis),
                "nodes": u.result.nodes,
            }
            for u in self.units
        }
        row["achieved_ii_per_iteration"] = self.achieved_ii_per_iteration
        row["certified_ii_per_iteration"] = self.certified_ii_per_iteration
        return row


# ----------------------------------------------------------------------


def certify_compiled(
    loop: Loop,
    machine: MachineDescription,
    compiled: CompiledLoop,
    budget: OracleBudget | None = None,
    config: PartitionConfig | None = None,
) -> LoopCertificate:
    """Certify an already-compiled loop (observe-only: the compilation
    is never altered — the oracle runs after the fact)."""
    from repro.observability.recorder import active_recorder, maybe_span

    budget = budget or OracleBudget()
    rec = active_recorder()
    with maybe_span(rec, "oracle_certify", loop=loop.name):
        partition_result: PartitionOracleResult | None = None
        if compiled.partition is not None:
            dep = analyze_loop(loop, machine.vector_length)
            partition_result = exact_partition(
                dep, machine, config, budget, incumbent=compiled.partition
            )
        cert = LoopCertificate(
            loop=loop.name,
            machine=machine.name,
            ops=len(loop.body),
            partition=partition_result,
        )
        for unit in compiled.units:
            udep = analyze_loop(unit.transform.loop, machine.vector_length)
            result = certify_schedule(
                unit.transform.loop,
                udep.graph,
                machine,
                unit.schedule.ii,
                budget,
            )
            cert.units.append(
                UnitCertificate(
                    name=unit.transform.loop.name,
                    factor=unit.transform.factor,
                    result=result,
                )
            )
        if rec is not None:
            rec.count("oracle.loops_certified")
    if rec is not None:
        emit_oracle_remarks(rec, cert)
    return cert


def certify_loop(
    loop: Loop,
    machine: MachineDescription,
    budget: OracleBudget | None = None,
    config: PartitionConfig | None = None,
) -> LoopCertificate:
    """Compile ``loop`` selectively, then certify the result."""
    compiled = compile_loop(
        loop, machine, Strategy.SELECTIVE, partition_config=config
    )
    return certify_compiled(loop, machine, compiled, budget, config)


def emit_oracle_remarks(rec, cert: LoopCertificate) -> None:
    """One remark per certificate, under pass name ``oracle`` (rendered
    by ``--explain`` as the certification section)."""
    p = cert.partition
    if p is not None:
        if p.certified and (p.kl_gap or 0) == 0:
            rec.remark(
                "oracle",
                cert.loop,
                "partition-optimal",
                f"KL partition cost {p.kl_cost} is the certified optimum "
                f"(branch-and-bound, {p.nodes} nodes, {p.leaves} leaves)",
                cost=p.best_cost,
                nodes=p.nodes,
            )
        elif p.certified:
            rec.remark(
                "oracle",
                cert.loop,
                "partition-gap",
                f"KL partition cost {p.kl_cost} vs certified optimum "
                f"{p.best_cost} (gap {p.kl_gap})",
                kl_cost=p.kl_cost,
                oracle_cost=p.best_cost,
                gap=p.kl_gap,
                nodes=p.nodes,
            )
        else:
            rec.remark(
                "oracle",
                cert.loop,
                "partition-unfinished",
                f"partition search {p.status} after {p.nodes} nodes: "
                f"optimum in [{p.lower_bound}, {p.best_cost}]; KL cost "
                f"{p.kl_cost} unrefuted",
                status=p.status,
                lower_bound=p.lower_bound,
                best_cost=p.best_cost,
                nodes=p.nodes,
            )
    for u in cert.units:
        r = u.result
        if r.certified and r.ii_gap == 0:
            proved = (
                f", proved II {list(r.infeasible_iis)} infeasible"
                if r.infeasible_iis
                else ""
            )
            rec.remark(
                "oracle",
                cert.loop,
                "ii-optimal",
                f"unit {u.name}: II={r.achieved_ii} certified optimal "
                f"(MII {r.mii}{proved})",
                unit=u.name,
                ii=r.achieved_ii,
                mii=r.mii,
            )
        elif r.certified:
            rec.remark(
                "oracle",
                cert.loop,
                "ii-gap",
                f"unit {u.name}: oracle found a schedule at "
                f"II={r.certified_ii}, heuristic achieved "
                f"{r.achieved_ii} (gap {r.ii_gap})",
                unit=u.name,
                achieved_ii=r.achieved_ii,
                certified_ii=r.certified_ii,
                gap=r.ii_gap,
            )
        else:
            rec.remark(
                "oracle",
                cert.loop,
                "ii-unfinished",
                f"unit {u.name}: II certificate {r.status} after "
                f"{r.nodes} nodes (optimal II in "
                f"[{r.ii_lower_bound}, {r.achieved_ii}])",
                unit=u.name,
                status=r.status,
                lower_bound=r.ii_lower_bound,
                achieved_ii=r.achieved_ii,
            )


def render_certificate(cert: LoopCertificate) -> str:
    """Human-readable certificate for one loop (the ``--oracle`` CLI
    output)."""
    lines = [f"oracle certificate for {cert.loop} ({cert.status}):"]
    p = cert.partition
    if p is not None:
        if p.certified:
            verdict = (
                "optimal"
                if (p.kl_gap or 0) == 0
                else f"suboptimal (certified optimum {p.best_cost})"
            )
            lines.append(
                f"  partition: KL cost {p.kl_cost} {verdict} — "
                f"{p.nodes} node(s), {p.leaves} leaf/leaves, "
                f"{p.elapsed_s * 1000:.0f} ms"
            )
        else:
            lines.append(
                f"  partition: {p.status} after {p.nodes} node(s); "
                f"optimum in [{p.lower_bound}, {p.best_cost}], "
                f"KL cost {p.kl_cost} unrefuted"
            )
    for u in cert.units:
        r = u.result
        if r.certified:
            verdict = (
                "optimal"
                if r.ii_gap == 0
                else f"suboptimal (feasible at II={r.certified_ii})"
            )
            proved = (
                f", proved {list(r.infeasible_iis)} infeasible"
                if r.infeasible_iis
                else ""
            )
            lines.append(
                f"  unit {u.name}: II={r.achieved_ii} {verdict} "
                f"(MII {r.mii}{proved}, {r.nodes} node(s))"
            )
        else:
            lines.append(
                f"  unit {u.name}: {r.status} after {r.nodes} node(s); "
                f"optimal II in [{r.ii_lower_bound}, {r.achieved_ii}]"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The report


def small_corpus_loops(
    max_ops: int = MAX_CORPUS_OPS, limit: int = CORPUS_LIMIT
) -> list[Loop]:
    """A deterministic subset of small corpus loops (body size capped so
    certification fits comfortably in the default budget)."""
    from repro.workloads.spec import BENCHMARK_NAMES, build_benchmark

    loops: list[Loop] = []
    for name in BENCHMARK_NAMES:
        for wl in build_benchmark(name).loops:
            if len(wl.loop.body) <= max_ops:
                loops.append(wl.loop)
                if len(loops) >= limit:
                    return loops
    return loops


def default_gap_suite() -> list[tuple[Loop, MachineDescription]]:
    """Figure 1's dot product on the toy machine, plus the corpus subset
    on the paper machine."""
    from repro.machine.configs import figure1_machine, paper_machine

    from repro.workloads.kernels import dot_product

    suite: list[tuple[Loop, MachineDescription]] = [
        (dot_product(), figure1_machine())
    ]
    paper = paper_machine()
    for loop in small_corpus_loops():
        suite.append((loop, paper))
    return suite


def oracle_gap_report(
    budget: OracleBudget | None = None,
    suite: list[tuple[Loop, MachineDescription]] | None = None,
) -> dict[str, object]:
    """Run the harness and assemble the ``BENCH_oracle_gap.json`` payload."""
    from repro.evaluation.bench_io import BENCH_SCHEMA_VERSION

    budget = budget or OracleBudget()
    suite = suite if suite is not None else default_gap_suite()
    rows: dict[str, dict[str, object]] = {}
    summary = {
        "loops": 0,
        "certified": 0,
        "bounded": 0,
        "timeout": 0,
        "kl_gap_zero": 0,
        "kl_gap_positive": 0,
        "ii_gap_positive": 0,
    }
    for loop, machine in suite:
        cert = certify_loop(loop, machine, budget)
        rows[loop.name] = cert.to_row()
        summary["loops"] += 1
        summary[cert.status] += 1
        if cert.partition is not None and cert.partition.certified:
            if (cert.kl_gap or 0) == 0:
                summary["kl_gap_zero"] += 1
            else:
                summary["kl_gap_positive"] += 1
        if (cert.ii_gap or 0) > 0:
            summary["ii_gap_positive"] += 1
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "experiment": "oracle_gap",
        "budget": {
            "max_nodes": budget.max_nodes,
            "max_seconds": budget.max_seconds,
        },
        "data": {"loops": rows, "summary": summary},
    }


def render_gap_table(payload: dict[str, object]) -> str:
    """ASCII summary of an oracle-gap payload."""
    data = payload["data"]
    loops: dict[str, dict] = data["loops"]  # type: ignore[assignment]
    lines = [
        "oracle optimality gaps (KL ResMII vs branch-and-bound; achieved "
        "II vs certified II):",
        f"{'loop':<24} {'machine':<10} {'status':<10} "
        f"{'KL':>4} {'opt':>4} {'gap':>4}  {'II':>5} {'II*':>5}",
    ]
    for name, row in loops.items():
        part = row.get("partition") or {}
        certified_ii = row.get("certified_ii_per_iteration")
        ii_star = "-" if certified_ii is None else f"{certified_ii:.2f}"
        lines.append(
            f"{name:<24} {row['machine']:<10} {row['status']:<10} "
            f"{_fmt(part.get('kl_cost')):>4} "
            f"{_fmt(part.get('oracle_cost')):>4} "
            f"{_fmt(part.get('kl_gap')):>4}  "
            f"{row['achieved_ii_per_iteration']:>5.2f} {ii_star:>5}"
        )
    s = data["summary"]  # type: ignore[index]
    lines.append(
        f"summary: {s['loops']} loop(s) — {s['certified']} certified, "
        f"{s['bounded']} bounded, {s['timeout']} timeout; KL gap zero on "
        f"{s['kl_gap_zero']}/{s['kl_gap_zero'] + s['kl_gap_positive']} "
        f"certified partition(s)"
    )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    return "-" if value is None else str(value)
