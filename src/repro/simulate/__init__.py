"""Schedule-level timing model."""

from repro.simulate.pipeline_sim import (
    PipelineRun,
    PipelineSimulator,
    simulate_pipeline,
)
from repro.simulate.timing import (
    LOOP_SETUP_CYCLES,
    UnitTiming,
    aggregate_cycles,
)

__all__ = [
    "LOOP_SETUP_CYCLES",
    "PipelineRun",
    "PipelineSimulator",
    "UnitTiming",
    "aggregate_cycles",
    "simulate_pipeline",
]
