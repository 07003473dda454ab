"""E2 — Figure 2's worked example, with the paper's exact numbers.

Scenario (paper §2): ``r=4, t=1, mf=1000`` so ``m0 = ceil(2001/35) = 58``;
good nodes get ``m = m0 + 1 = 59``. Bad nodes sit on a ``(2r+1)``-period
lattice ("every neighborhood has exactly one bad node"), offset so the
starved node ``p`` has exactly 33 good decided suppliers.

Paper's claims, all checked here:

- the 81-node source neighborhood accepts (source repeats 2tmf+1 = 2001
  times);
- exactly four more nodes — the mid-side nodes ``(0,±5), (±5,0)`` — can
  accept, each with ``(r(2r+1)-t) * m = 35*59 = 2065`` potential supply;
- every other node stalls: ``p = (1,5)`` has ``33 * 59 = 1947`` potential
  correct messages, of which the in-range defender can corrupt enough to
  leave at most ``tmf = 1000 < 1001`` — the paper counts 1000 altered and
  947 correct delivered;
- hence broadcast fails even though ``m > m0`` (the ``(m0, 2m0)`` gap).

The defense is *clairvoyant* (see :mod:`repro.adversary.figure2`, the
registered ``"figure2-defense"`` behavior): each of the four defenders
adjacent to the source square jams the whole ``4x4`` supplier quadrant
between its two frontier arms (16 nodes * 59 transmissions = 944) plus 3
transmissions of each of its two mid-side suppliers — 950 of its 1000
budget — pinning every second-wave receiver to exactly 1000 clean copies.

The whole instance family is declarative: :func:`scenario_spec` builds
the one :class:`~repro.scenario.ScenarioSpec` (grid, lattice placement,
protocol B, the registered defense behavior) that every entry point here
— classic run, generalized sweep, walkthrough — executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.figure2 import (
    LATTICE,
    M,
    MF,
    MIDSIDE,
    P_COORD,
    R,
    T,
    WIDTH,
    figure2_midside_quota,
)
from repro.adversary.placement import LatticePlacement
from repro.analysis.bounds import m0
from repro.errors import ConfigurationError
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache, SweepResult
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import BroadcastReport, format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario

HEIGHT = WIDTH


@dataclass(frozen=True)
class Figure2Result:
    m0: int
    decided_good: int
    expected_decided: int
    p_potential: int
    p_clean: int
    p_suppliers: int
    midside_potential: int
    defender_spend: int
    broadcast_failed: bool
    report: BroadcastReport


def validate_figure2_attack(m: int, mf: int, t: int = T) -> None:
    """Check the clairvoyant defense is fundable and effective.

    Raises :class:`ConfigurationError` when the construction cannot win:
    - the defender budget must cover quadrant jams plus two quotas
      (``16*m + 2*q <= mf``);
    - the quota cannot exceed the mid-side node's own send count;
    - the mid-side nodes must still decide (``20*m >= t*mf + 1``), else
      the decided set differs from the figure.
    """
    quota = figure2_midside_quota(m, mf, t)
    if quota > m:
        raise ConfigurationError(
            f"quota {quota} exceeds mid-side send count {m}: p cannot be pinned"
        )
    if 16 * m + 2 * quota > mf:
        raise ConfigurationError(
            f"defense needs {16 * m + 2 * quota} jams > budget mf={mf}"
        )
    if 20 * m < t * mf + 1:
        raise ConfigurationError(
            f"mid-side supply {20 * m} < threshold {t * mf + 1}: "
            "the decided set would differ from Figure 2"
        )


def scenario_spec(
    *,
    m: int,
    mf: int,
    max_rounds: int = 130,
    batch_per_slot: int = 25,
) -> ScenarioSpec:
    """The Figure-2 construction as one declarative scenario.

    Validates feasibility first (see :func:`validate_figure2_attack`);
    the paper's instance is ``m=59, mf=1000``.
    """
    validate_figure2_attack(m, mf)
    return ScenarioSpec(
        grid=GridSpec(width=WIDTH, height=HEIGHT, r=R, torus=True),
        t=T,
        mf=mf,
        placement=LatticePlacement(x0=LATTICE[0], y0=LATTICE[1], cluster=1),
        protocol="b",
        behavior="figure2-defense",
        behavior_params={"midside_quota": figure2_midside_quota(m, mf)},
        m=m,
        max_rounds=max_rounds,
        batch_per_slot=batch_per_slot,
    )


def paper_spec() -> ScenarioSpec:
    """The paper's exact instance (m=59, mf=1000) as a scenario."""
    return scenario_spec(m=M, mf=MF)


def run_figure2_generalized(
    *,
    m: int,
    mf: int,
    max_rounds: int = 130,
    batch_per_slot: int = 25,
) -> Figure2Result:
    """Figure-2 construction for arbitrary ``(m, mf)`` at r=4, t=1."""
    spec = scenario_spec(
        m=m, mf=mf, max_rounds=max_rounds, batch_per_slot=batch_per_slot
    )
    report = run_scenario(spec)
    return _collect(report, spec)


def run_figure2(max_rounds: int = 130, batch_per_slot: int = 25) -> Figure2Result:
    """Run the Figure 2 scenario at the paper's exact parameters."""
    return run_figure2_generalized(
        m=M, mf=MF, max_rounds=max_rounds, batch_per_slot=batch_per_slot
    )


def _collect(report: BroadcastReport, spec: ScenarioSpec) -> Figure2Result:
    grid = report.grid
    m, mf = spec.m, spec.mf

    source = grid.id_of((0, 0))
    square = {
        grid.id_of((x, y)) for x in range(-R, R + 1) for y in range(-R, R + 1)
    }
    expected_decided = {nid for nid in square if report.table.is_honest(nid)}
    expected_decided |= {grid.id_of(c) for c in MIDSIDE}
    expected_decided.discard(source)

    p_id = grid.id_of(P_COORD)
    p_node = report.nodes[p_id]
    # p's suppliers: decided good neighbors (what the paper counts as 33).
    p_suppliers = sum(
        1
        for nb in grid.neighbors(p_id)
        if report.table.is_honest(nb)
        and nb != source
        and getattr(report.nodes.get(nb), "decided", False)
    )
    defender = grid.id_of((4, 5))

    return Figure2Result(
        m0=m0(R, T, mf),
        decided_good=report.outcome.decided_good,
        expected_decided=len(expected_decided),
        p_potential=p_suppliers * m,
        p_clean=p_node.count_of(spec.vtrue),
        p_suppliers=p_suppliers,
        midside_potential=(grid.spec.half_neighborhood - T) * m,
        defender_spend=report.ledger.sent(defender),
        broadcast_failed=not report.outcome.complete,
        report=report,
    )


@dataclass(frozen=True)
class Figure2SweepPoint:
    """One generalized Figure-2 instance (picklable sweep point)."""

    m: int
    mf: int
    max_rounds: int = 130
    batch_per_slot: int = 25

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        return scenario_spec(
            m=self.m,
            mf=self.mf,
            max_rounds=self.max_rounds,
            batch_per_slot=self.batch_per_slot,
        )


@dataclass(frozen=True)
class Figure2Summary:
    """Comparison-friendly projection of :class:`Figure2Result`.

    Carries the outcome bits, paper quantities, and message counts —
    everything the determinism suite compares point-for-point — but not
    the live :class:`BroadcastReport` (worker results must be picklable
    and cacheable).
    """

    m: int
    mf: int
    m0: int
    decided_good: int
    expected_decided: int
    p_potential: int
    p_clean: int
    p_suppliers: int
    midside_potential: int
    defender_spend: int
    broadcast_failed: bool
    good_total_sent: int
    good_max_sent: int
    bad_total_sent: int
    rounds: int


#: Default sweep: the paper instance m = m0 + 1 = 59 plus neighbors inside
#: the fundable window 51 <= m <= 60 of validate_figure2_attack at mf=1000.
DEFAULT_SWEEP_POINTS: tuple[Figure2SweepPoint, ...] = (
    Figure2SweepPoint(m=57, mf=MF),
    Figure2SweepPoint(m=M, mf=MF),
    Figure2SweepPoint(m=60, mf=MF),
)


def _run_sweep_point(point: Figure2SweepPoint) -> Figure2Summary:
    """Run one generalized Figure-2 scenario and summarize (worker-safe)."""
    spec = point.scenario()
    result = _collect(run_scenario(spec), spec)
    report = result.report
    return Figure2Summary(
        m=point.m,
        mf=point.mf,
        m0=result.m0,
        decided_good=result.decided_good,
        expected_decided=result.expected_decided,
        p_potential=result.p_potential,
        p_clean=result.p_clean,
        p_suppliers=result.p_suppliers,
        midside_potential=result.midside_potential,
        defender_spend=result.defender_spend,
        broadcast_failed=result.broadcast_failed,
        good_total_sent=report.costs.good_total,
        good_max_sent=report.costs.good_max,
        bad_total_sent=report.costs.bad_total,
        rounds=report.outcome.rounds,
    )


def run_sweep(
    *,
    points: tuple[Figure2SweepPoint, ...] = DEFAULT_SWEEP_POINTS,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> SweepResult:
    """Sweep generalized Figure-2 instances (registry entry point)."""
    return parallel_sweep(
        points,
        _run_sweep_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )


def run_classic(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> Figure2Summary:
    """The classic single paper instance, riding the parallel substrate.

    One :class:`Figure2SweepPoint` (m=59, mf=1000) through
    :func:`repro.runner.parallel.sweep`, so the flagship run shares the
    result cache and worker plumbing with every other experiment instead
    of the historical ad-hoc serial call.
    """
    result = parallel_sweep(
        (Figure2SweepPoint(m=M, mf=MF),),
        _run_sweep_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return result.results[0]


def sweep_table(result: SweepResult) -> str:
    rows = result.rows(
        lambda point, s: [
            s.m,
            s.mf,
            s.m0,
            s.decided_good + 1,
            s.p_suppliers,
            s.p_clean,
            s.defender_spend,
            s.broadcast_failed,
            s.good_max_sent,
            s.rounds,
        ]
    )
    return format_table(
        ["m", "mf", "m0", "decided+src", "p suppliers", "p clean",
         "defender spent", "fails", "max good sent", "rounds"],
        rows,
        title=(
            "E2 - generalized Figure 2 corner-starvation sweep "
            f"(r={R}, t={T}; paper instance is m={M}, mf={MF})"
        ),
    )


def table(result: Figure2Result | Figure2Summary) -> str:
    """Render the classic worked example (live result or sweep summary)."""
    rows = [
        ["m0 = ceil(2*t*mf+1 / (r(2r+1)-t))", 58, result.m0],
        ["good budget m = m0 + 1", 59, M],
        [
            "decided nodes incl source (square + 4 mid-side)",
            84,
            result.decided_good + 1,
        ],
        ["p's decided good suppliers", 33, result.p_suppliers],
        ["p's potential correct messages (33 * 59)", 1947, result.p_potential],
        ["mid-side potential ((r(2r+1)-t) * m)", 2065, result.midside_potential],
        ["p's clean copies (must be <= t*mf = 1000)", "<=1000", result.p_clean],
        ["defender budget spent (<= mf = 1000)", "<=1000", result.defender_spend],
        ["broadcast fails despite m > m0", True, result.broadcast_failed],
    ]
    return format_table(
        ["quantity", "paper", "measured"],
        rows,
        title="E2 - Figure 2 worked example (r=4, t=1, mf=1000, m=59)",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_classic()))


if __name__ == "__main__":  # pragma: no cover
    main()
