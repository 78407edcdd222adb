"""Table 4 — communication must be considered during partitioning.

Paper: when the partitioner ignores scalar<->vector transfer costs (the
transfers are still inserted for correctness), most benchmarks suffer a
severe degradation; tracking communication is essential for selective
vectorization to be viable.

Our reproduction shows the same: the communication-blind variant is worse
than the communication-aware one on every benchmark.
"""

from conftest import pedantic

from repro.evaluation.tables import format_experiment


def test_bench_table4(benchmark, evaluator):
    rows = pedantic(benchmark, evaluator.table4)
    print()
    print(format_experiment("table4", rows))

    for name, row in rows.items():
        assert row["considered"] >= row["ignored"], name

    # The blind variant loses meaningful performance on the benchmarks
    # where selective vectorization does real work.
    drops = {
        name: row["considered"] - row["ignored"] for name, row in rows.items()
    }
    assert drops["101.tomcatv"] >= 0.15
    assert drops["171.swim"] >= 0.10
    assert sum(d > 0.02 for d in drops.values()) >= 6
