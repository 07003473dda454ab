"""The experiment registry: one addressable entry per figure/theorem.

Maps experiment ids (``e1``–``e13``) to their harness modules and the
uniform run/format entry points every module exposes:

- ``run(*, workers=1, cache=None, progress=None)`` — regenerate the
  experiment through :func:`repro.runner.parallel.sweep`, optionally
  fanning points out over ``workers`` processes and memoizing per-point
  results in a :class:`~repro.runner.parallel.ResultCache`;
- ``table(result)`` — render the regenerated rows.

The CLI (``python -m repro run <exp...>``), the ``perfbench/``
benchmark, and the determinism test suite all resolve experiments
through this registry rather than importing harness modules ad hoc, so
a new experiment is registered exactly once.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.runner.parallel import ResultCache


@dataclass(frozen=True)
class Experiment:
    """One registered experiment harness.

    ``runner``/``formatter`` name the module attributes implementing the
    uniform entry points (``run``/``table`` unless a module needs
    distinct names, like E2 whose classic ``table`` renders the single
    paper instance).
    """

    exp_id: str
    module_name: str
    description: str
    runner: str = "run"
    formatter: str = "table"

    def module(self) -> ModuleType:
        return importlib.import_module(self.module_name)

    def run(
        self,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[int, int], None] | None = None,
    ) -> Any:
        """Regenerate this experiment (parallel + cached when asked)."""
        run = getattr(self.module(), self.runner)
        return run(workers=workers, cache=cache, progress=progress)

    def format(self, result: Any) -> str:
        """Render a result from :meth:`run` as the experiment's table."""
        return getattr(self.module(), self.formatter)(result)


_EXPERIMENTS: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.exp_id in _EXPERIMENTS:
        raise ConfigurationError(
            f"experiment {experiment.exp_id!r} is already registered"
        )
    _EXPERIMENTS[experiment.exp_id] = experiment
    return experiment


for _exp in (
    Experiment("e1", "repro.experiments.e1_impossibility",
               "Thm 1 / Fig 1: stripe impossibility"),
    Experiment("e2", "repro.experiments.e2_figure2",
               "Fig 2 worked example + generalized sweep",
               runner="run_sweep", formatter="sweep_table"),
    Experiment("e3", "repro.experiments.e3_protocol_b",
               "Thm 2: protocol B at m = 2*m0"),
    Experiment("e4", "repro.experiments.e4_koo_comparison",
               "budget comparison vs Koo [14]"),
    Experiment("e5", "repro.experiments.e5_heterogeneous",
               "Thm 3 / Fig 5: heterogeneous budgets"),
    Experiment("e6", "repro.experiments.e6_coding",
               "Fig 9: coding overhead + attacks"),
    Experiment("e7", "repro.experiments.e7_reactive",
               "Thm 4: B_reactive, unknown mf"),
    Experiment("e8", "repro.experiments.e8_corollary1",
               "Cor 1 feasibility map"),
    Experiment("e9", "repro.experiments.e9_ablations",
               "design ablations"),
    Experiment("e10", "repro.experiments.e10_uncertain_region",
               "open region (m0, 2m0) [ext]"),
    Experiment("e11", "repro.experiments.e11_refined_coding_cost",
               "refined coding cost [ext]"),
    Experiment("e12", "repro.experiments.e12_probabilistic_failures",
               "crash failures [ext]"),
    Experiment("e13", "repro.experiments.e13_subbit_link",
               "sub-bit link validation [ext]"),
):
    register(_exp)


def experiment_ids() -> tuple[str, ...]:
    """All registered experiment ids, in registration (paper) order."""
    return tuple(_EXPERIMENTS)


def get(exp_id: str) -> Experiment:
    """Look an experiment up by id; unknown ids fail with the known set."""
    try:
        return _EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(_EXPERIMENTS)
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; known: {known}"
        ) from None


def all_experiments() -> tuple[Experiment, ...]:
    return tuple(_EXPERIMENTS.values())
