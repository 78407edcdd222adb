"""Figure 1 — the motivating example.

Paper: dot product on a three-issue machine with one vector operation
per cycle.  Modulo scheduling II=2.0; traditional vectorization 3.0;
full vectorization 1.5; selective vectorization 1.0.

Our reproduction matches all four values exactly.
"""

from conftest import pedantic

from repro.evaluation.experiments import figure1_iis
from repro.evaluation.tables import PAPER_FIGURE1, format_experiment


def test_bench_figure1(benchmark):
    measured = pedantic(benchmark, figure1_iis)
    print()
    print(format_experiment("figure1", measured))
    assert measured == PAPER_FIGURE1
