"""Experiments reproducing the paper's tables and figures."""

from repro.evaluation.experiments import (
    BenchmarkEvaluation,
    Evaluator,
    LoopComparison,
    Variant,
    figure1_iis,
)
from repro.evaluation.tables import (
    PAPER_FIGURE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    experiment_table,
    format_experiment,
)

__all__ = [
    "BenchmarkEvaluation",
    "Evaluator",
    "LoopComparison",
    "PAPER_FIGURE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "Variant",
    "experiment_table",
    "figure1_iis",
    "format_experiment",
]
