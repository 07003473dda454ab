"""E3 — Theorem 2: protocol B achieves reliable broadcast at ``m = 2*m0``.

Sweeps (r, t, mf) configurations; for each, runs protocol B with the
theorem's sufficient budget against (a) the stripe adversary guarding a
victim band and (b) a random locally-bounded placement with the
threshold-guard jammer protecting everyone. Records success, the maximum
per-node spend (must be the relay count ``m' <= 2*m0``), and the cost
ratio to the lower bound ``m0`` (paper: within twice the lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.placement import RandomPlacement, band_ids, two_stripe_band
from repro.analysis.bounds import m0, protocol_b_relay_count
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario

#: Default sweep: (r, t, mf) triples exercising low/high collision budgets
#: and adversary densities.
DEFAULT_CONFIGS: tuple[tuple[int, int, int], ...] = (
    (1, 1, 1),
    (1, 1, 3),
    (1, 2, 2),
    (2, 2, 3),
    (2, 4, 2),
    (2, 6, 1),
    (2, 3, 4),
)


@dataclass(frozen=True)
class TheoremTwoPoint:
    r: int
    t: int
    mf: int
    m0: int
    m: int
    relay_count: int
    placement: str
    success: bool
    max_good_sent: int
    cost_over_lower_bound: float


@dataclass(frozen=True)
class TheoremTwoResult:
    points: tuple[TheoremTwoPoint, ...]

    @property
    def all_succeed(self) -> bool:
        return all(p.success for p in self.points)

    @property
    def cost_within_twice_lower_bound(self) -> bool:
        return all(p.max_good_sent <= 2 * p.m0 for p in self.points)


def _grid_for(r: int) -> GridSpec:
    side = 2 * r + 1
    dim = max(6 * side, 4 * side)  # comfortably larger than two stripes
    return GridSpec(width=dim, height=dim, r=r, torus=True)


@dataclass(frozen=True)
class TheoremTwoSweepPoint:
    """One (r, t, mf, placement) scenario, self-contained for workers."""

    r: int
    t: int
    mf: int
    placement: str  # "stripe-band" | "random"
    seed: int

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        r, t, mf = self.r, self.t, self.mf
        spec = _grid_for(r)
        if self.placement == "stripe-band":
            placement, band_rows = two_stripe_band(
                spec, t=t, band_height=2 * r + 2, below_y0=3 * r
            )
            protected = band_ids(spec, band_rows)
        else:
            placement = RandomPlacement(
                t=t, count=spec.n // (2 * (2 * r + 1) ** 2), seed=self.seed
            )
            protected = None
        return ScenarioSpec(
            grid=spec,
            t=t,
            mf=mf,
            placement=placement,
            protocol="b",
            m=2 * m0(r, t, mf),
            protected=protected,
            batch_per_slot=4,
        )


def _run_theorem2_point(point: TheoremTwoSweepPoint) -> TheoremTwoPoint:
    """Rebuild and run one Theorem-2 scenario (worker-safe)."""
    r, t, mf = point.r, point.t, point.mf
    lower = m0(r, t, mf)
    m = 2 * lower
    report = run_scenario(point.scenario())
    return TheoremTwoPoint(
        r=r,
        t=t,
        mf=mf,
        m0=lower,
        m=m,
        relay_count=protocol_b_relay_count(r, t, mf),
        placement=point.placement,
        success=report.success,
        max_good_sent=report.costs.good_max,
        cost_over_lower_bound=report.costs.good_max / lower,
    )


def run_theorem2(
    configs: tuple[tuple[int, int, int], ...] = DEFAULT_CONFIGS,
    *,
    seed: int = 7,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> TheoremTwoResult:
    points = [
        TheoremTwoSweepPoint(r=r, t=t, mf=mf, placement=label, seed=seed)
        for r, t, mf in configs
        for label in ("stripe-band", "random")
    ]
    result = parallel_sweep(
        points,
        _run_theorem2_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return TheoremTwoResult(points=tuple(result.results))


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> TheoremTwoResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_theorem2(workers=workers, cache=cache, progress=progress)


def table(result: TheoremTwoResult) -> str:
    rows = [
        [
            p.r,
            p.t,
            p.mf,
            p.m0,
            p.m,
            p.relay_count,
            p.placement,
            p.success,
            p.max_good_sent,
            p.cost_over_lower_bound,
        ]
        for p in result.points
    ]
    return format_table(
        ["r", "t", "mf", "m0", "m=2m0", "relay m'", "placement",
         "success", "max sent", "sent/m0"],
        rows,
        title="E3 - Theorem 2: protocol B with m = 2*m0 (cost within 2x lower bound)",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_theorem2()))


if __name__ == "__main__":  # pragma: no cover
    main()
