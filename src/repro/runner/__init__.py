"""End-to-end runs, sweeps, and report formatting.

Scenario *assembly* lives in :mod:`repro.scenario` (the declarative
``ScenarioSpec`` + registry API); this package keeps the execution
substrate — the parallel sweep engine and result cache
(:mod:`repro.runner.parallel`) and report formatting
(:mod:`repro.runner.report`).
"""

from repro.runner.report import BroadcastReport, format_table
from repro.runner.parallel import (
    ResultCache,
    SweepProgress,
    SweepResult,
    point_key,
    point_seed,
    sweep,
)
from repro.runner.parallel import sweep as parallel_sweep

__all__ = [
    "BroadcastReport",
    "format_table",
    "ResultCache",
    "SweepProgress",
    "SweepResult",
    "parallel_sweep",
    "point_key",
    "point_seed",
    "sweep",
]
