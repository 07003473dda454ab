"""The one entry point: assemble and run any :class:`ScenarioSpec`.

:func:`run` builds the grid and role table, resolves the protocol and
adversary behavior through the name registries, assembles budgets and
the round driver, runs to quiescence, and returns a
:class:`~repro.runner.report.BroadcastReport` whose bytes the
golden-table suite pins. Its ``tier`` argument (:class:`repro.seams.Tier`)
chooses between the fast paths and their reference twins for that one
call; every tier produces the same report.

:func:`run_summary` projects the live report onto the flat, picklable
:class:`ScenarioOutcome` so spec sweeps can ride
:func:`repro.runner.parallel.sweep` (workers + result cache) directly:
``sweep(specs, run_summary, workers=..., cache=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import repro.radio.mac as mac
from repro.analysis.verify import collect_costs, collect_outcome
from repro.errors import ConfigurationError
from repro.network.grid import Grid
from repro.network.node import NodeTable
from repro.protocols import flat, vectorized
from repro.protocols.base import BroadcastParams
from repro.radio.budget import BudgetLedger
from repro.radio.mac import RoundDriver, RunLimits
from repro.radio.schedule import TdmaSchedule
from repro.runner.parallel import ProcessLocalCache
from repro.runner.report import BroadcastReport, format_table
from repro.scenario.registries import BehaviorContext, BuildContext, behaviors, protocols
from repro.scenario.spec import ScenarioSpec
from repro.seams import Tier
from repro.sim.rng import RngRegistry
from repro.sim.trace import NULL_TRACER, Tracer
from repro.types import NodeId

#: Warm Grid/TdmaSchedule/Medium/NodeTable instances shared across the
#: scenario runs of one process (sweep workers build each grid once).
_GRIDS = ProcessLocalCache(limit=8)
_MEDIA = ProcessLocalCache(limit=8)
_TABLES = ProcessLocalCache(limit=16)


def _world_for(spec: ScenarioSpec):
    """(grid, schedule, medium) for a spec, warm-cached per process.

    The medium cache key includes the (monkeypatchable) medium class so
    recording test setups never receive a stale instance; sharing the
    slot memo across runs of one grid is sound because delivery
    resolution depends only on the grid and the transmissions, never on
    placement or protocol state.
    """
    medium_cls = mac.Medium
    grid, schedule = _GRIDS.get_or_build(
        spec.grid, lambda: (g := Grid(spec.grid), TdmaSchedule(g))
    )
    medium = _MEDIA.get_or_build((spec.grid, medium_cls), lambda: medium_cls(grid))
    return grid, schedule, medium


def _build_table(spec: ScenarioSpec, grid: Grid, source: NodeId) -> NodeTable:
    """The spec's role table, built fresh and locally validated."""
    table = NodeTable(grid, source, spec.placement.bad_ids(grid, source))
    if spec.validate_local_bound:
        table.validate_locally_bounded(spec.t)
    return table


def _table_for(spec: ScenarioSpec, grid: Grid, source: NodeId) -> NodeTable:
    """The spec's role table, warm-cached per process.

    Sound to share because a :class:`NodeTable` is immutable after
    construction and placements are deterministic in ``(grid, source)``;
    the key carries everything validation depends on. Unhashable custom
    placements simply rebuild every run.
    """
    try:
        key = (
            spec.grid,
            source,
            spec.placement,
            spec.t,
            spec.validate_local_bound,
        )
        hash(key)
    except TypeError:
        return _build_table(spec, grid, source)
    return _TABLES.get_or_build(key, lambda: _build_table(spec, grid, source))


def validate(spec: ScenarioSpec) -> Grid:
    """Check a spec is runnable without running it; return its grid.

    Resolves the protocol and behavior names against the registries,
    builds (or warm-fetches) the grid, checks the source coordinate and
    protected ids, constructs the protocol parameters (which enforce the
    model bounds on ``t``/``mf``), and materializes the role table — so
    the placement's local-bound validation fires exactly as it would at
    run time. The fuzz sampler uses this as its acceptance test; CLI
    paths can use it for dry runs.
    """
    protocol = protocols.get(spec.protocol)
    behaviors.get(spec.behavior or protocol.default_behavior)
    grid, _schedule, _medium = _world_for(spec)
    source = grid.id_of(spec.source)
    BroadcastParams(r=spec.grid.r, t=spec.t, mf=spec.mf, vtrue=spec.vtrue)
    if spec.protected is not None:
        out_of_range = [nid for nid in spec.protected if not 0 <= nid < grid.n]
        if out_of_range:
            raise ConfigurationError(
                f"protected ids outside the grid: {out_of_range[:5]}"
            )
    _table_for(spec, grid, source)
    return grid


def run(
    spec: ScenarioSpec,
    *,
    tier: Tier = Tier.VECTOR,
    tracer: Tracer = NULL_TRACER,
    adversary_override: Callable[[Grid, NodeTable, BudgetLedger], object] | None = None,
) -> BroadcastReport:
    """Run one scenario to quiescence and return its ``BroadcastReport``.

    ``tier`` picks the implementations (see :mod:`repro.seams`):
    ``REFERENCE`` builds a cold world and runs every reference twin,
    ``FAST`` uses the warm world, the batched round loop and the flat
    engines, and ``VECTOR`` also tries the NumPy whole-grid kernel. The
    report is the same at every tier. A traced run always runs at
    ``REFERENCE``, the one tier that emits per-delivery events.

    ``tier``, ``tracer`` and ``adversary_override`` are run-time extras
    precisely because they are not serializable scenario *content*: the
    override is an escape hatch for ad-hoc adversaries and takes
    precedence over ``spec.behavior``.
    """
    if tracer.enabled:
        tier = Tier.REFERENCE
    fast = tier is not Tier.REFERENCE
    protocol = protocols.get(spec.protocol)
    if fast:
        grid, schedule, medium = _world_for(spec)
    else:
        grid = Grid(spec.grid, fast=False)
        schedule = TdmaSchedule(grid)
        medium = mac.Medium(grid, fast=False)
    source = grid.id_of(spec.source)
    table = (_table_for if fast else _build_table)(spec, grid, source)
    params = BroadcastParams(r=spec.grid.r, t=spec.t, mf=spec.mf, vtrue=spec.vtrue)

    # Whole-grid NumPy kernel: engages only for runs it can reproduce
    # bit-for-bit (threshold protocol, inert adversary — see
    # repro.protocols.vectorized); everything else falls through to the
    # per-node assembly below untouched.
    if tier is Tier.VECTOR:
        vector_report = vectorized.try_vector_run(
            spec,
            protocol,
            grid,
            table,
            source,
            params,
            adversary_override=adversary_override,
        )
        if vector_report is not None:
            return vector_report

    build = protocol.build(
        BuildContext(spec=spec, grid=grid, table=table, source=source, params=params)
    )

    overrides: dict[NodeId, int | None] = (
        build.assignment.overrides() if build.assignment is not None else {}
    )
    overrides.update(build.ledger_overrides)
    for bad in table.bad_ids:
        overrides[bad] = spec.mf
    ledger = BudgetLedger(grid.n, default_budget=None, overrides=overrides)

    if adversary_override is not None:
        adversary = adversary_override(grid, table, ledger)
    else:
        behavior = behaviors.get(spec.behavior or protocol.default_behavior)
        adversary = behavior.build(
            BehaviorContext(
                spec=spec,
                grid=grid,
                table=table,
                ledger=ledger,
                params=params,
                rngs=RngRegistry(spec.seed),
                tracer=tracer,
            )
        )
    binder = getattr(adversary, "bind_decided", None)
    if callable(binder):
        binder(build.nodes)

    # Reference runs distribute through the nodes themselves, which must
    # then stay canonical; the flat engine rides the batched round loop.
    engine = (
        flat.build_flat_engine(build.nodes, grid.n, params, source) if fast else None
    )
    if engine is not None:
        bits_binder = getattr(adversary, "bind_decided_bits", None)
        if callable(bits_binder):
            bits_binder(engine.decided)

    driver = RoundDriver(
        grid,
        table,
        build.nodes,
        adversary,
        ledger,
        batch_per_slot=spec.batch_per_slot,
        tracer=tracer,
        medium=medium,
        schedule=schedule,
        engine=engine,
        fast=fast,
    )
    max_rounds = spec.max_rounds if spec.max_rounds is not None else build.max_rounds
    stats = driver.run(RunLimits(max_rounds=max_rounds))
    if engine is not None:
        engine.sync_nodes()

    outcome = collect_outcome(table, build.nodes, stats, spec.vtrue)
    costs = collect_costs(table, ledger)
    return BroadcastReport(
        outcome=outcome,
        costs=costs,
        stats=stats,
        grid=grid,
        table=table,
        nodes=build.nodes,
        adversary=adversary,
        ledger=ledger,
        assignment=build.assignment,
    )


@dataclass(frozen=True)
class ScenarioOutcome:
    """Flat, picklable projection of a finished scenario run.

    What ``python -m repro scenario run`` tabulates and what the result
    cache stores for spec sweeps — everything quantitative, nothing live.
    """

    success: bool
    decided_good: int
    total_good: int
    wrong_good: int
    rounds: int
    quiescent: bool
    good_total_sent: int
    good_max_sent: int
    bad_total_sent: int

    @property
    def decided_fraction(self) -> float:
        return self.decided_good / self.total_good if self.total_good else 1.0


def run_summary(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run a scenario and summarize (module-level, spawn-worker-safe)."""
    report = run(spec)
    return ScenarioOutcome(
        success=report.success,
        decided_good=report.outcome.decided_good,
        total_good=report.outcome.total_good,
        wrong_good=report.outcome.wrong_good,
        rounds=report.outcome.rounds,
        quiescent=report.stats.quiescent,
        good_total_sent=report.costs.good_total,
        good_max_sent=report.costs.good_max,
        bad_total_sent=report.costs.bad_total,
    )


def outcome_table(
    specs: list[ScenarioSpec], outcomes: list[ScenarioOutcome], *, title: str
) -> str:
    """Render one row per (spec, outcome) pair for the scenario CLI."""
    rows = [
        [
            spec.content_hash()[:12],
            f"{spec.grid.width}x{spec.grid.height} r={spec.grid.r}",
            spec.protocol,
            spec.behavior or protocols.get(spec.protocol).default_behavior,
            outcome.success,
            f"{outcome.decided_good}/{outcome.total_good}",
            outcome.wrong_good,
            outcome.rounds,
            outcome.good_max_sent,
            outcome.bad_total_sent,
        ]
        for spec, outcome in zip(specs, outcomes)
    ]
    return format_table(
        ["scenario", "grid", "protocol", "behavior", "success", "decided",
         "wrong", "rounds", "max good sent", "bad sent"],
        rows,
        title=title,
    )

