"""Table 2 — whole-benchmark speedup over modulo scheduling.

Paper shape: traditional vectorization degrades performance on almost
every benchmark (0.18x on nasa7 in the paper — loop distribution plus
through-memory scalar expansion); full vectorization roughly matches the
baseline; selective vectorization wins everywhere except the
low-trip-count turb3d, with the maximum on tomcatv (1.38x) and a 1.11x
mean.

The absolute traditional-column degradations are milder here (our timing
is pure schedule arithmetic on a synthetic corpus), but every ordering
the paper reports is reproduced: traditional < full <= selective per
benchmark, nasa7 worst for traditional, tomcatv best and turb3d worst
for selective, and a selective mean within a few percent of 1.11x.
"""

from conftest import pedantic

from repro.evaluation.tables import format_experiment
from repro.workloads.spec import BENCHMARK_NAMES


def test_bench_table2(benchmark, evaluator):
    rows = pedantic(benchmark, evaluator.table2)
    print()
    print(format_experiment("table2", rows))

    assert set(rows) == set(BENCHMARK_NAMES)
    for name, row in rows.items():
        # Ordering within each benchmark: distribution never beats keeping
        # the loop intact; selective never loses to full vectorization.
        assert row["traditional"] <= row["full"] + 0.05, name
        assert row["selective"] >= row["full"] - 0.02, name

    selective = {n: r["selective"] for n, r in rows.items()}
    mean = sum(selective.values()) / len(selective)
    assert 1.05 <= mean <= 1.20, f"selective mean {mean:.3f} (paper: 1.11)"
    assert max(selective, key=selective.get) == "101.tomcatv"
    assert selective["101.tomcatv"] >= 1.30
    assert min(selective, key=selective.get) == "125.turb3d"
    assert selective["125.turb3d"] <= 1.02

    traditional = {n: r["traditional"] for n, r in rows.items()}
    assert min(traditional, key=traditional.get) == "093.nasa7"
    assert traditional["093.nasa7"] <= 0.70
    # hydro2d/swim barely affected in the paper (0.94 / 1.01)
    assert traditional["104.hydro2d"] >= 0.88
    assert traditional["171.swim"] >= 0.90

    full = {n: r["full"] for n, r in rows.items()}
    assert min(full, key=full.get) == "093.nasa7"  # paper: 0.76
    assert all(v <= 1.06 for v in full.values())
