"""E8 — Corollary 1: the feasibility boundary in the (t, m) plane.

For fixed (r, mf) we sweep the number of bad nodes per neighborhood ``t``
and the good budget ``m``, run the stripe-band scenario under the
threshold-guard jammer, and compare the empirical outcome with the two
analytic curves of Corollary 1:

- *breakable*:  ``t > (m*r(2r+1) - 1) / (2*mf + m)``  (equivalently
  ``m < m0``) — the adversary *can* cause failure;
- *tolerable*:  ``t <= (m*r(2r+1) - 2) / (4*mf + m)`` (≈ ``m >= 2*m0``)
  — some protocol always succeeds.

Between the curves lies the paper's open region. The empirical map shows
(a) every tolerable point succeeds, (b) breakable points fail wherever
the collision geometry lets the jammer realize the counting argument —
at razor-tight points (supply within one jam-coverage of ``2tmf+1``)
the shared-jam geometry cannot, which is the boundary-tightness
reproduction note from E1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.adversary.placement import band_ids, two_stripe_band
from repro.analysis.bounds import (
    corollary1_max_tolerable_t,
    corollary1_min_breakable_t,
    m0,
)
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario


@dataclass(frozen=True)
class BoundaryPoint:
    t: int
    m: int
    m0: int
    success: bool
    breakable: bool  # Corollary 1 impossibility side applies
    tolerable: bool  # Corollary 1 possibility side applies

    @property
    def classification(self) -> str:
        if self.tolerable:
            return "tolerable"
        if self.breakable:
            return "breakable"
        return "open"

    @property
    def consistent(self) -> bool:
        """Empirical outcome never contradicts the possibility side."""
        return self.success if self.tolerable else True


@dataclass(frozen=True)
class BoundaryResult:
    r: int
    mf: int
    points: tuple[BoundaryPoint, ...]

    @property
    def all_consistent(self) -> bool:
        return all(p.consistent for p in self.points)

    @property
    def breakable_failure_rate(self) -> float:
        breakable = [p for p in self.points if p.breakable and not p.tolerable]
        if not breakable:
            return 1.0
        return sum(not p.success for p in breakable) / len(breakable)


@dataclass(frozen=True)
class BoundarySweepPoint:
    """One (t, m) cell of the feasibility map (picklable)."""

    r: int
    mf: int
    t: int
    m: int
    width: int
    height: int

    def scenario(self) -> ScenarioSpec:
        """The point's full scenario (grid to adversary) as a spec."""
        spec = GridSpec(
            width=self.width, height=self.height, r=self.r, torus=True
        )
        placement, band_rows = two_stripe_band(
            spec, t=self.t, band_height=2 * self.r + 2, below_y0=3 * self.r
        )
        return ScenarioSpec(
            grid=spec,
            t=self.t,
            mf=self.mf,
            placement=placement,
            protocol="b",
            m=self.m,
            protected=band_ids(spec, band_rows),
            batch_per_slot=4,
        )


def _run_boundary_point(point: BoundarySweepPoint) -> BoundaryPoint:
    """Rebuild and run one feasibility-map cell (worker-safe)."""
    r, mf, t, m = point.r, point.mf, point.t, point.m
    report = run_scenario(point.scenario())
    return BoundaryPoint(
        t=t,
        m=m,
        m0=m0(r, t, mf),
        success=report.success,
        breakable=t >= corollary1_min_breakable_t(r, m, mf),
        tolerable=t <= corollary1_max_tolerable_t(r, m, mf),
    )


def run_boundary(
    *,
    r: int = 2,
    mf: int = 2,
    ts: tuple[int, ...] = (1, 2, 3, 4, 6),
    ms: tuple[int, ...] = (1, 2, 3, 4, 6),
    width: int = 30,
    height: int = 30,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> BoundaryResult:
    points = [
        BoundarySweepPoint(r=r, mf=mf, t=t, m=m, width=width, height=height)
        for t in ts
        for m in ms
    ]
    result = parallel_sweep(
        points,
        _run_boundary_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    return BoundaryResult(r=r, mf=mf, points=tuple(result.results))


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> BoundaryResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_boundary(workers=workers, cache=cache, progress=progress)


def table(result: BoundaryResult) -> str:
    rows = [
        [p.t, p.m, p.m0, p.classification, p.success, p.consistent]
        for p in result.points
    ]
    return format_table(
        ["t", "m", "m0(t)", "Corollary 1", "success", "consistent"],
        rows,
        title=(
            f"E8 - Corollary 1 feasibility map (r={result.r}, mf={result.mf}); "
            "'tolerable' points must succeed, 'breakable' fail where the "
            "jam geometry permits"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_boundary()))


if __name__ == "__main__":  # pragma: no cover
    main()
