"""E5 — Theorem 3 / Figure 5: heterogeneous budgets.

B_heter assigns ``m' = ceil((2tmf+1)/ceil((r(2r+1)-t)/2))`` to the
cross-shaped region through the source and ``m0`` to everyone else. The
experiment verifies:

- broadcast succeeds under worst-case jamming and random placements;
- the average good-node budget sits well below the homogeneous ``2*m0``
  (and approaches ``m0`` as the network grows relative to the Θ(r³)
  cross — the asymptotic column reports the paper's infinite-plane
  reading, where the cross holds Θ(r³) of Θ(n) nodes);
- measured per-node spend never exceeds the assigned budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.placement import RandomPlacement, two_stripe_band
from repro.analysis.bounds import m0, protocol_b_relay_count
from repro.network.grid import Grid, GridSpec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario


@dataclass(frozen=True)
class HeterogeneousPoint:
    width: int
    r: int
    t: int
    mf: int
    m0: int
    m_prime: int
    placement: str
    success: bool
    privileged: int
    privileged_fraction: float
    average_budget: float
    homogeneous_budget: int
    savings_fraction: float
    max_sent: int


@dataclass(frozen=True)
class HeterogeneousResult:
    points: tuple[HeterogeneousPoint, ...]

    @property
    def all_succeed(self) -> bool:
        return all(p.success for p in self.points)

    @property
    def always_cheaper_than_homogeneous(self) -> bool:
        return all(p.average_budget < p.homogeneous_budget for p in self.points)


@dataclass(frozen=True)
class HeterogeneousSweepPoint:
    """One (width, placement) heterogeneous scenario (picklable)."""

    width: int
    r: int
    t: int
    mf: int
    placement: str  # "stripe-band" | "random"
    seed: int

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        width, r, t, mf = self.width, self.r, self.t, self.mf
        spec = GridSpec(width=width, height=width, r=r, torus=True)
        grid = Grid(spec)
        if self.placement == "stripe-band":
            placement, band_rows = two_stripe_band(
                grid, t=t, band_height=2 * r + 2, below_y0=3 * r
            )
            protected = tuple(
                gid
                for y in band_rows
                for gid in (grid.id_of((x, y)) for x in range(width))
            )
        else:
            placement = RandomPlacement(
                t=t, count=grid.n // (2 * (2 * r + 1) ** 2), seed=self.seed
            )
            protected = None
        return ScenarioSpec(
            grid=spec,
            t=t,
            mf=mf,
            placement=placement,
            protocol="heter",
            protected=protected,
            batch_per_slot=4,
        )


def _run_heterogeneous_point(
    point: HeterogeneousSweepPoint,
) -> HeterogeneousPoint:
    """Rebuild and run one B_heter scenario (worker-safe).

    The Figure-5 assignment is the one the run's ``heter`` build made
    (``heterogeneous_assignment`` over the report's grid and source).
    """
    width, r, t, mf = point.width, point.r, point.t, point.mf
    lower = m0(r, t, mf)
    homogeneous = 2 * lower
    report = run_scenario(point.scenario())
    grid = report.grid
    assignment = report.assignment
    return HeterogeneousPoint(
        width=width,
        r=r,
        t=t,
        mf=mf,
        m0=lower,
        m_prime=protocol_b_relay_count(r, t, mf),
        placement=point.placement,
        success=report.success,
        privileged=len(assignment.privileged),
        privileged_fraction=len(assignment.privileged) / grid.n,
        average_budget=assignment.average,
        homogeneous_budget=homogeneous,
        savings_fraction=1 - assignment.average / homogeneous,
        max_sent=report.costs.good_max,
    )


def run_heterogeneous(
    *,
    r: int = 2,
    t: int = 2,
    mf: int = 3,
    widths: tuple[int, ...] = (30, 60, 90),
    seed: int = 5,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> HeterogeneousResult:
    points = [
        HeterogeneousSweepPoint(
            width=width, r=r, t=t, mf=mf, placement=label, seed=seed
        )
        for width in widths
        for label in ("stripe-band", "random")
    ]
    result = parallel_sweep(
        points,
        _run_heterogeneous_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return HeterogeneousResult(points=tuple(result.results))


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> HeterogeneousResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_heterogeneous(workers=workers, cache=cache, progress=progress)


def table(result: HeterogeneousResult) -> str:
    rows = [
        [
            f"{p.width}x{p.width}",
            p.placement,
            p.m0,
            p.m_prime,
            p.privileged,
            f"{p.privileged_fraction:.3f}",
            f"{p.average_budget:.2f}",
            p.homogeneous_budget,
            f"{p.savings_fraction:.1%}",
            p.success,
            p.max_sent,
        ]
        for p in result.points
    ]
    return format_table(
        ["grid", "placement", "m0", "m'", "privileged", "priv. frac",
         "avg budget", "homog. 2m0", "savings", "success", "max sent"],
        rows,
        title=(
            "E5 - Theorem 3: heterogeneous budgets (cross m', elsewhere m0); "
            "savings grow as the cross's share shrinks"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_heterogeneous()))


if __name__ == "__main__":  # pragma: no cover
    main()
