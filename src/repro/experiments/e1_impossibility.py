"""E1 — Theorem 1 / Figure 1: stripe impossibility as a function of ``m``.

A victim band of the torus is fenced by two Theorem-1 stripes (Figure 1's
construction; two stripes because a torus has no 'far side'). We sweep
the homogeneous good budget ``m`` and measure the fraction of the band
that accepts ``Vtrue`` under the threshold-guard jammer:

- ``m < m0``  — the band is fully starved (broadcast fails);
- ``m >= 2*m0`` — the band is fully covered (Theorem 2);
- ``m in [m0, 2*m0)`` — the paper's open region; with this placement the
  band survives already at ``m0`` (consistent with the paper, which shows
  a *different* placement — Figure 2 — beating ``m0 + 1``).

**Reproduction note (boundary tightness).** The paper's lower-bound
counting charges each receiver's ``t*mf`` corruption budget
independently. In a faithful collision geometry one jam is shared by all
common neighbors of jammer and victim, and for razor-tight parameter
points (``g*m`` within ~coverage-width of ``2*t*mf + 1``) the required
receiver-corruptions can exceed what any jam schedule supplies, so the
adversary cannot always realize ``m = m0 - 1`` failures (e.g. r=2, t=2,
mf=2). The default parameters here have the necessary slack; experiment
E8 maps the resulting empirical boundary against Corollary 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.placement import band_ids, two_stripe_band
from repro.analysis.bounds import m0
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario
from repro.types import NodeId


@dataclass(frozen=True)
class ImpossibilityPoint:
    m: int
    m_over_m0: float
    band_decided: int
    band_total: int
    success: bool
    jams_spent: int

    @property
    def band_fraction(self) -> float:
        return self.band_decided / self.band_total if self.band_total else 1.0


@dataclass(frozen=True)
class ImpossibilityResult:
    r: int
    t: int
    mf: int
    m0: int
    points: tuple[ImpossibilityPoint, ...]

    @property
    def fails_below_m0(self) -> bool:
        return all(not p.success for p in self.points if p.m < self.m0)

    @property
    def succeeds_at_2m0(self) -> bool:
        return all(p.success for p in self.points if p.m >= 2 * self.m0)


@dataclass(frozen=True)
class StripePoint:
    """One self-contained sweep point: everything a worker needs."""

    r: int
    t: int
    mf: int
    width: int
    height: int
    band_height: int
    below_y0: int
    m: int

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec.

        The protected set *is* the victim band, so the band ids the
        report analysis needs travel inside the spec.
        """
        grid_spec = GridSpec(
            width=self.width, height=self.height, r=self.r, torus=True
        )
        placement, band_rows = two_stripe_band(
            grid_spec, t=self.t, band_height=self.band_height, below_y0=self.below_y0
        )
        return ScenarioSpec(
            grid=grid_spec,
            t=self.t,
            mf=self.mf,
            placement=placement,
            protocol="b",
            m=self.m,
            protected=band_ids(grid_spec, band_rows),
            batch_per_slot=4,
        )


def _run_stripe_point(point: StripePoint) -> ImpossibilityPoint:
    """Rebuild the stripe scenario from the point and run it (worker-safe)."""
    spec = point.scenario()
    report = run_scenario(spec)
    band_ids: tuple[NodeId, ...] = spec.protected
    band_good = [nid for nid in band_ids if nid in report.nodes]
    decided = sum(1 for nid in band_good if report.nodes[nid].decided)
    lower = m0(point.r, point.t, point.mf)
    return ImpossibilityPoint(
        m=point.m,
        m_over_m0=point.m / lower,
        band_decided=decided,
        band_total=len(band_good),
        success=report.success,
        jams_spent=report.costs.bad_total,
    )


def run_impossibility(
    *,
    r: int = 2,
    t: int = 2,
    mf: int = 3,
    width: int = 30,
    height: int = 30,
    band_height: int = 6,
    below_y0: int = 8,
    ms: tuple[int, ...] | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ImpossibilityResult:
    """Sweep ``m`` through the stripe scenario and record band coverage."""
    lower = m0(r, t, mf)
    if ms is None:
        ms = tuple(sorted({1, lower - 1, lower, lower + 1, 2 * lower, 2 * lower + 1}))
        ms = tuple(m for m in ms if m >= 1)
    points = [
        StripePoint(
            r=r, t=t, mf=mf, width=width, height=height,
            band_height=band_height, below_y0=below_y0, m=m,
        )
        for m in ms
    ]
    result = parallel_sweep(
        points,
        _run_stripe_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return ImpossibilityResult(
        r=r, t=t, mf=mf, m0=lower, points=tuple(result.results)
    )


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ImpossibilityResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_impossibility(workers=workers, cache=cache, progress=progress)


def table(result: ImpossibilityResult) -> str:
    rows = [
        [
            p.m,
            f"{p.m_over_m0:.2f}",
            f"{p.band_decided}/{p.band_total}",
            p.band_fraction,
            p.success,
            p.jams_spent,
            ("fail (Thm 1)" if p.m < result.m0
             else "succeed (Thm 2)" if p.m >= 2 * result.m0
             else "open region"),
        ]
        for p in result.points
    ]
    return format_table(
        ["m", "m/m0", "band decided", "fraction", "success", "jams", "paper"],
        rows,
        title=(
            f"E1 - stripe impossibility (r={result.r}, t={result.t}, "
            f"mf={result.mf}, m0={result.m0})"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_impossibility()))


if __name__ == "__main__":  # pragma: no cover
    main()
