"""E9 — ablations on the paper's design choices.

Three studies backing the claims DESIGN.md calls out:

- **(a) concerted relays** — sweep the per-node relay count at the fixed
  acceptance rule: protocol B's ``m' = ceil((2tmf+1)/ceil((N-t)/2))`` is
  the knee below which the stripe band starves; the baseline's
  ``2tmf+1`` buys nothing extra. This isolates the paper's key idea —
  pooling a half-neighborhood's relays instead of out-shouting collisions
  alone.
- **(b) growth shape** — in the Figure 2 corner-starvation scenario,
  homogeneous ``m0 + 1`` fails (E2) while the cross/circle configuration
  of Theorem 3 succeeds against the *same* clairvoyant defense, at a
  comparable average budget.
- **(c) NACK quiet window** — B_reactive with the paper's
  ``(2r+1)^2 - 1`` window always delivers; shrinking the window to 1
  round makes senders stop before straggling NACKs arrive and the
  broadcast can lose receivers under attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.figure2 import LATTICE, M, MF, R, T, WIDTH
from repro.adversary.placement import (
    LatticePlacement,
    RandomPlacement,
    band_ids,
    two_stripe_band,
)
from repro.analysis.bounds import koo_budget, m0, protocol_b_relay_count
from repro.experiments.e2_figure2 import run_figure2
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario


# -- (a) relay-count sweep -----------------------------------------------------


@dataclass(frozen=True)
class RelayPoint:
    relay_count: int
    label: str
    success: bool
    max_sent: int


@dataclass(frozen=True)
class RelaySweepPoint:
    """One relay-count candidate of the E9a ablation (picklable)."""

    r: int
    t: int
    mf: int
    width: int
    relay: int
    label: str

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        r, t, mf, width = self.r, self.t, self.mf, self.width
        spec = GridSpec(width=width, height=width, r=r, torus=True)
        placement, band_rows = two_stripe_band(
            spec, t=t, band_height=2 * r + 2, below_y0=3 * r
        )
        return ScenarioSpec(
            grid=spec,
            t=t,
            mf=mf,
            placement=placement,
            protocol="b",
            m=self.relay,  # budget == relay count: exactly `relay` sends each
            protocol_params={"relay_override": self.relay},
            protected=band_ids(spec, band_rows),
            batch_per_slot=4,
        )


def _run_relay_point(point: RelaySweepPoint) -> RelayPoint:
    """Rebuild and run one relay-count candidate (worker-safe)."""
    report = run_scenario(point.scenario())
    return RelayPoint(
        relay_count=point.relay,
        label=point.label,
        success=report.success,
        max_sent=report.costs.good_max,
    )


def run_relay_sweep(
    *,
    r: int = 2,
    t: int = 2,
    mf: int = 3,
    width: int = 30,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[RelayPoint, ...]:
    """Success vs relay count under the stripe adversary (budget = relay)."""
    m_prime = protocol_b_relay_count(r, t, mf)
    candidates: dict[int, str] = {}
    for relay, label in (
        (m0(r, t, mf) - 1, "m0 - 1"),
        (m_prime - 1, "m' - 1"),
        (m_prime, "m' (protocol B)"),
        (2 * m0(r, t, mf), "2*m0"),
        (koo_budget(t, mf), "2tmf+1 (Koo)"),
    ):
        # Distinct named points can coincide numerically (m' == 2*m0 for
        # some parameters); keep both names on one row.
        candidates[relay] = (
            f"{candidates[relay]} = {label}" if relay in candidates else label
        )
    points = [
        RelaySweepPoint(r=r, t=t, mf=mf, width=width, relay=relay, label=label)
        for relay, label in sorted(candidates.items())
        if relay >= 1
    ]
    result = parallel_sweep(
        points,
        _run_relay_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return tuple(result.results)


# -- (b) growth shape (Figure 2 scenario, homogeneous vs cross) ----------------


@dataclass(frozen=True)
class GrowthShapeResult:
    homogeneous_success: bool
    homogeneous_avg_budget: float
    heterogeneous_success: bool
    heterogeneous_avg_budget: float


@dataclass(frozen=True)
class GrowthShapePoint:
    """One growth-shape configuration of the E9b pair (picklable).

    ``shape`` is ``"square"`` (homogeneous m0+1, the Figure-2 instance)
    or ``"cross"`` (the heterogeneous Theorem-3 assignment).
    """

    shape: str
    max_rounds: int = 200

    def scenario(self) -> ScenarioSpec:
        """The cross configuration's scenario as a spec.

        The cross shape pairs Theorem 3's heterogeneous assignment with
        the same registered clairvoyant Figure-2 defense (historically an
        ad-hoc ``adversary_factory`` lambda — behavior ``"custom"``).
        The square shape is the E2 paper instance itself and runs through
        :func:`repro.experiments.e2_figure2.run_figure2`.
        """
        if self.shape != "cross":
            raise ValueError(f"no scenario spec for growth shape {self.shape!r}")
        return ScenarioSpec(
            grid=GridSpec(width=WIDTH, height=WIDTH, r=R, torus=True),
            t=T,
            mf=MF,
            placement=LatticePlacement(x0=LATTICE[0], y0=LATTICE[1], cluster=1),
            protocol="heter",
            behavior="figure2-defense",
            max_rounds=self.max_rounds,
            batch_per_slot=25,
        )


@dataclass(frozen=True)
class GrowthShapeRun:
    """Per-shape record aggregated into :class:`GrowthShapeResult`."""

    shape: str
    success: bool
    avg_budget: float


def _run_growth_point(point: GrowthShapePoint) -> GrowthShapeRun:
    """Rebuild and run one growth-shape configuration (worker-safe)."""
    if point.shape == "square":
        fig2 = run_figure2()
        return GrowthShapeRun(
            shape="square",
            success=not fig2.broadcast_failed,
            avg_budget=float(M),
        )
    if point.shape != "cross":
        raise ValueError(f"unknown growth shape {point.shape!r}")
    heter = run_scenario(point.scenario())
    return GrowthShapeRun(
        shape="cross",
        success=heter.success,
        avg_budget=heter.assignment.average,
    )


def run_growth_shape(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> GrowthShapeResult:
    """Same clairvoyant Figure-2 defense; square growth vs cross growth.

    The two configurations ride :func:`repro.runner.parallel.sweep` as
    picklable points, so they run in parallel workers and memoize like
    every other experiment (historically this pair was a serial spot).
    """
    result = parallel_sweep(
        (GrowthShapePoint(shape="square"), GrowthShapePoint(shape="cross")),
        _run_growth_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    square, cross = result.results
    return GrowthShapeResult(
        homogeneous_success=square.success,
        homogeneous_avg_budget=square.avg_budget,
        heterogeneous_success=cross.success,
        heterogeneous_avg_budget=cross.avg_budget,
    )


# -- (c) NACK quiet window ------------------------------------------------------


@dataclass(frozen=True)
class QuietWindowPoint:
    window: int
    success_rate: float
    avg_rounds: float
    avg_max_sent: float


@dataclass(frozen=True)
class QuietWindowSweepPoint:
    """One (window, seed) B_reactive run of the E9c ablation (picklable)."""

    window: int
    seed: int
    width: int
    mf: int
    bad_count: int

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        return ScenarioSpec(
            grid=GridSpec(width=self.width, height=self.width, r=1, torus=True),
            t=1,
            mf=self.mf,
            mmax=10**6,
            placement=RandomPlacement(
                t=1, count=self.bad_count, seed=500 + self.seed
            ),
            protocol="reactive",
            seed=self.seed,
            protocol_params={"quiet_limit": self.window},
        )


@dataclass(frozen=True)
class QuietWindowRun:
    """Per-run record aggregated into :class:`QuietWindowPoint`."""

    window: int
    seed: int
    success: bool
    rounds: int
    max_sent: int


def _run_quiet_window_point(point: QuietWindowSweepPoint) -> QuietWindowRun:
    """Rebuild and run one quiet-window scenario (worker-safe)."""
    report = run_scenario(point.scenario())
    return QuietWindowRun(
        window=point.window,
        seed=point.seed,
        success=report.success,
        rounds=report.stats.rounds,
        max_sent=max(
            node.data_sent + node.nacks_sent for node in report.nodes.values()
        ),
    )


def run_quiet_window(
    *,
    windows: tuple[int, ...] = (1, 8),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    width: int = 18,
    mf: int = 25,
    bad_count: int = 24,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[QuietWindowPoint, ...]:
    """B_reactive quiet-window sensitivity (r=1: paper window is 8).

    **Finding (documented in EXPERIMENTS.md):** even a 1-round window
    keeps the broadcast reliable in this model, because a jam is locally
    *audible garbage* — every node within range of the jammer (including,
    for near jams, the victim sender and alternative endorsers) registers
    a failure indication the same round and keeps retransmitting, and L∞
    geometry guarantees some endorser of every receiver sits next to any
    jammer. The paper's ``(2r+1)^2 - 1`` window is the conservative bound
    that covers a full TDMA period, ensuring every receiver's NACK slot
    occurs inside the window even under maximal schedule load; the
    measured cost difference between windows is what this ablation
    quantifies.
    """
    sweep_points = [
        QuietWindowSweepPoint(
            window=window, seed=seed, width=width, mf=mf, bad_count=bad_count
        )
        for window in windows
        for seed in seeds
    ]
    result = parallel_sweep(
        sweep_points,
        _run_quiet_window_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    points = []
    for window in windows:
        runs = [run_ for run_ in result.results if run_.window == window]
        points.append(
            QuietWindowPoint(
                window=window,
                success_rate=sum(run_.success for run_ in runs) / len(runs),
                avg_rounds=sum(run_.rounds for run_ in runs) / len(runs),
                avg_max_sent=sum(run_.max_sent for run_ in runs) / len(runs),
            )
        )
    return tuple(points)


def table_a(points: tuple[RelayPoint, ...]) -> str:
    return format_table(
        ["relay count", "label", "success", "max sent"],
        [[p.relay_count, p.label, p.success, p.max_sent] for p in points],
        title=(
            "E9a - relay-count ablation (stripe adversary): below m0 the band "
            "starves; m' is the paper-guaranteed sufficient count"
        ),
    )


def table_b(result: GrowthShapeResult) -> str:
    return format_table(
        ["configuration", "success", "avg good budget"],
        [
            ["homogeneous m0+1 (square growth, Fig 2)",
             result.homogeneous_success, result.homogeneous_avg_budget],
            ["heterogeneous cross (circular growth, Thm 3)",
             result.heterogeneous_success, result.heterogeneous_avg_budget],
        ],
        title="E9b - growth-shape ablation on the Figure 2 scenario",
    )


def table_c(points: tuple[QuietWindowPoint, ...]) -> str:
    return format_table(
        ["quiet window (rounds)", "success rate", "avg rounds", "avg max sent"],
        [[p.window, p.success_rate, p.avg_rounds, p.avg_max_sent] for p in points],
        title=(
            "E9c - NACK quiet-window ablation (paper: (2r+1)^2 - 1 = 8 for "
            "r=1); reliability is window-insensitive here, cost is not"
        ),
    )


@dataclass(frozen=True)
class AblationResult:
    """All three E9 studies, for the registry/CLI path."""

    relay: tuple[RelayPoint, ...]
    growth: GrowthShapeResult
    quiet: tuple[QuietWindowPoint, ...]


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> AblationResult:
    """Registry entry point: all three ablations.

    All three studies — including the growth-shape pair, historically a
    serial spot — fan out over the parallel substrate and memoize.
    """
    return AblationResult(
        relay=run_relay_sweep(workers=workers, cache=cache, progress=progress),
        growth=run_growth_shape(workers=workers, cache=cache, progress=progress),
        quiet=run_quiet_window(workers=workers, cache=cache, progress=progress),
    )


def table(result: AblationResult) -> str:
    return "\n\n".join(
        [table_a(result.relay), table_b(result.growth), table_c(result.quiet)]
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table_a(run_relay_sweep()))
    print()
    print(table_b(run_growth_shape()))
    print()
    print(table_c(run_quiet_window()))


if __name__ == "__main__":  # pragma: no cover
    main()
