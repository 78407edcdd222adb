"""Table 3 — per-loop ResMII / final II outcomes.

Paper: across nine benchmarks, selective vectorization finds a strictly
lower ResMII than every competing technique on 27-83% of resource-limited
loops depending on the benchmark, is never worse on ResMII for all but
one loop, and occasionally loses on final II because iterative modulo
scheduling is a heuristic.

Our corpus matches the paper's resource-limited loop counts exactly (30,
6, 38, 67, 12, 133, 14, 16, 61) and tracks the better/equal splits.
"""

from conftest import pedantic

from repro.evaluation.tables import PAPER_TABLE3, format_experiment


def test_bench_table3(benchmark, evaluator):
    rows = pedantic(benchmark, evaluator.table3)
    print()
    print(format_experiment("table3", rows))

    for name, row in rows.items():
        paper = PAPER_TABLE3[name]
        # resource-limited loop counts match the paper exactly
        assert row["loops"] == paper["loops"], name
        res = row["res_mii"]
        # selective vectorization must never *increase* resource
        # requirements (the paper sees one exception in 377 loops)
        assert res["worse"] <= 1, name
        # better-count within a modest absolute band of the paper's
        assert abs(res["better"] - paper["better"]) <= 8, (
            name,
            res,
            paper,
        )

    total_better = sum(r["res_mii"]["better"] for r in rows.values())
    paper_better = sum(p["better"] for p in PAPER_TABLE3.values())
    assert abs(total_better - paper_better) / paper_better < 0.15
