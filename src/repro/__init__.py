"""repro — reproduction of *Message-Efficient Byzantine Fault-Tolerant
Broadcast in a Multi-Hop Wireless Sensor Network* (Bertier, Kermarrec,
Tan — ICDCS 2010).

The package implements the paper's full system stack from scratch:

- a toroidal/bounded grid radio network with L∞ neighborhoods, a
  collision-free TDMA schedule, per-node message budgets, and the paper's
  adversarial collision semantics (:mod:`repro.network`, :mod:`repro.radio`);
- worst-case adversaries realizing the lower-bound constructions
  (:mod:`repro.adversary`);
- the paper's protocols — **B** (§3), **B_heter** (§4), **B_reactive**
  (§5) — plus the Koo-et-al. repetition baseline and certified
  propagation (:mod:`repro.protocols`);
- the two-level integrity coding scheme and the I-code baseline
  (:mod:`repro.coding`);
- closed-form bounds and budget assignments (:mod:`repro.analysis`);
- scenario runners and experiment harnesses regenerating every
  figure/theorem of the paper (:mod:`repro.runner`, :mod:`repro.experiments`).

Quickstart — scenarios are declarative, serializable values
(:mod:`repro.scenario`)::

    from repro import GridSpec, ScenarioSpec, StripePlacement, run_scenario

    spec = ScenarioSpec(
        grid=GridSpec(width=30, height=30, r=2, torus=True),
        t=2, mf=2,
        placement=StripePlacement(y0=8, t=2),
        protocol="b",            # registry name; behavior defaults to "jam"
    )
    report = run_scenario(spec)
    assert report.success  # m = 2*m0 suffices (Theorem 2)

    text = spec.to_json()                    # a scenario is just JSON ...
    assert ScenarioSpec.from_json(text) == spec
    spec.content_hash()                      # ... with a stable identity
    # `python -m repro scenario run file.json` runs it with no Python edits.

Regenerating the paper (CLI)::

    python -m repro list                        # the 13 experiments
    python -m repro run e2 e7 --workers 4       # parallel sweeps
    python -m repro run all --cache-dir .cache  # memoize per-point results
    python -m repro scenario run figure2        # bundled preset scenarios

Experiments resolve through :mod:`repro.experiments.registry` and execute
on :func:`repro.runner.parallel.sweep`: points fan out over spawn-safe
worker processes (``--workers``, bit-identical to a serial run) and an
on-disk JSON cache keyed by a stable hash of each config point
(``--cache-dir``) skips everything already computed — re-running an
experiment only pays for points whose configuration changed.
Programmatic use::

    from repro import ResultCache, parallel_sweep
    from repro.experiments import registry

    result = registry.get("e8").run(workers=4, cache=ResultCache(".cache"))
"""

from repro._version import __version__
from repro.adversary import (
    LatticePlacement,
    NullAdversary,
    RandomPlacement,
    SpamLiar,
    SpoofingJammer,
    StripePlacement,
    ThresholdGuardJammer,
    two_stripe_band,
)
from repro.analysis import (
    BroadcastOutcome,
    BudgetAssignment,
    MessageCosts,
    corollary1_max_tolerable_t,
    corollary1_min_breakable_t,
    heterogeneous_assignment,
    homogeneous_assignment,
    koo_budget,
    m0,
    max_reactive_t,
    protocol_b_relay_count,
    theorem4_budget,
)
from repro.coding import ChainCode, ICode, SubbitCodec, UnidirectionalChannel
from repro.errors import (
    BudgetExceededError,
    CodingError,
    ConfigurationError,
    PlacementError,
    ReproError,
    ScheduleConflictError,
    SimulationError,
)
from repro.network import Grid, GridSpec, NodeTable
from repro.protocols import (
    BroadcastParams,
    make_cpa_nodes,
    make_koo_nodes,
    make_protocol_b_nodes,
    make_protocol_heter_nodes,
    make_reactive_nodes,
    protocol_b_required_budget,
)
from repro.radio import BudgetLedger, RoundDriver, RunLimits, TdmaSchedule
from repro.runner import (
    BroadcastReport,
    ResultCache,
    SweepProgress,
    SweepResult,
    format_table,
    parallel_sweep,
    point_key,
    point_seed,
    sweep,
)
from repro.scenario import ScenarioOutcome, ScenarioSpec
from repro.scenario import preset as scenario_preset
from repro.scenario import preset_names as scenario_preset_names
from repro.scenario import run as run_scenario
from repro.scenario import run_summary as run_scenario_summary
from repro.types import VFALSE, VTRUE, Role

__all__ = [
    "__version__",
    # network / radio
    "Grid",
    "GridSpec",
    "NodeTable",
    "BudgetLedger",
    "RoundDriver",
    "RunLimits",
    "TdmaSchedule",
    # adversary
    "LatticePlacement",
    "NullAdversary",
    "RandomPlacement",
    "SpamLiar",
    "SpoofingJammer",
    "StripePlacement",
    "ThresholdGuardJammer",
    "two_stripe_band",
    # analysis
    "BroadcastOutcome",
    "BudgetAssignment",
    "MessageCosts",
    "corollary1_max_tolerable_t",
    "corollary1_min_breakable_t",
    "heterogeneous_assignment",
    "homogeneous_assignment",
    "koo_budget",
    "m0",
    "max_reactive_t",
    "protocol_b_relay_count",
    "theorem4_budget",
    # coding
    "ChainCode",
    "ICode",
    "SubbitCodec",
    "UnidirectionalChannel",
    # protocols
    "BroadcastParams",
    "make_cpa_nodes",
    "make_koo_nodes",
    "make_protocol_b_nodes",
    "make_protocol_heter_nodes",
    "make_reactive_nodes",
    "protocol_b_required_budget",
    # scenario
    "ScenarioSpec",
    "ScenarioOutcome",
    "run_scenario",
    "run_scenario_summary",
    "scenario_preset",
    "scenario_preset_names",
    # runner
    "BroadcastReport",
    "ResultCache",
    "SweepProgress",
    "SweepResult",
    "format_table",
    "parallel_sweep",
    "point_key",
    "point_seed",
    "sweep",
    # errors
    "ReproError",
    "ConfigurationError",
    "BudgetExceededError",
    "CodingError",
    "PlacementError",
    "ScheduleConflictError",
    "SimulationError",
    # values
    "VTRUE",
    "VFALSE",
    "Role",
]
