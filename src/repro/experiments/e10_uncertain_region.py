"""E10 (extension) — exploring the paper's open region ``m ∈ (m0, 2m0)``.

Section 6 leaves open whether broadcast is possible for homogeneous
budgets strictly between the lower bound ``m0`` and Theorem 2's ``2*m0``.
The paper's own evidence is one-sided: Figure 2 exhibits a placement
beating ``m0 + 1`` for one parameter set. This experiment maps the open
region empirically:

for each budget fraction, we attack with *both* worst-case constructions
(the stripe band and the Figure-2 style corner-starvation lattice with a
clairvoyant defense computed for the actual parameters) and record
whether any of them wins. A point is *empirically possible* only if every
implemented adversary fails.

Outcome (see EXPERIMENTS.md): the stripe never beats ``m >= m0``; the
Figure-2 corner construction is fundable exactly for
``m <= 3*t*mf/50`` (at r=4, t=1), i.e. a thin band
``m0 <= m <= 1.05*m0`` of the open region is breakable and everything
above it resists every implemented attack. This quantifies how the
answer to the paper's open question must depend on ``mf`` (through the
defense's budget arithmetic), not only on the ratio ``m/m0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.bounds import m0
from repro.errors import ReproError
from repro.experiments import e2_figure2
from repro.network.grid import GridSpec
from repro.adversary.placement import band_ids, two_stripe_band
from repro.runner.parallel import ResultCache
from repro.runner.parallel import sweep as parallel_sweep
from repro.runner.report import format_table
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_scenario


@dataclass(frozen=True)
class UncertainPoint:
    m: int
    m_over_m0: float
    stripe_wins: bool
    lattice_wins: bool

    @property
    def empirically_possible(self) -> bool:
        return not (self.stripe_wins or self.lattice_wins)


@dataclass(frozen=True)
class UncertainRegionResult:
    r: int
    t: int
    mf: int
    m0: int
    corner_suppliers: int
    lattice_breakable_until: int
    points: tuple[UncertainPoint, ...]


def lattice_breakable_max_m(mf: int, t: int = 1) -> int:
    """Largest ``m`` the Figure-2 construction can starve (r=4, t=1).

    From :func:`repro.experiments.e2_figure2.validate_figure2_attack`:
    the defender funds 16 quadrant suppliers (16*m jams) plus two
    mid-side quotas ``q = 17*m - t*mf`` each, within its budget ``mf``:
    ``16*m + 2*max(0, 17*m - t*mf) <= mf`` ⟹ ``m <= 3*t*mf / 50`` once
    the quota is active (and ``q <= m`` ⟹ ``m <= t*mf/16``, which is
    looser).
    """
    return (3 * t * mf) // 50


def stripe_scenario(spec: GridSpec, t: int, mf: int, m: int) -> ScenarioSpec:
    """The stripe-band attack on one budget point, as a spec."""
    placement, band_rows = two_stripe_band(
        spec, t=t, band_height=2 * spec.r + 2, below_y0=3 * spec.r
    )
    return ScenarioSpec(
        grid=spec,
        t=t,
        mf=mf,
        placement=placement,
        protocol="b",
        m=m,
        protected=band_ids(spec, band_rows),
        batch_per_slot=8,
    )


def _stripe_attack_wins(spec: GridSpec, t: int, mf: int, m: int) -> bool:
    report = run_scenario(stripe_scenario(spec, t, mf, m))
    return not report.success


def _lattice_attack_wins(m: int, mf: int) -> bool:
    """Figure-2 style attack at r=4, t=1 with budget-scaled quotas."""
    if m * 16 > 2 * mf:  # quadrant jams alone exceed the defender budget
        # The clairvoyant defense cannot be funded; the attack cannot win.
        return False
    try:
        result = e2_figure2.run_figure2_generalized(m=m, mf=mf)
    except ReproError:
        return False
    return result.broadcast_failed


@dataclass(frozen=True)
class UncertainSweepPoint:
    """One budget fraction of the open-region map (picklable)."""

    r: int
    t: int
    mf: int
    m: int


def _run_uncertain_point(point: UncertainSweepPoint) -> UncertainPoint:
    """Attack one budget point with every implemented adversary (worker-safe)."""
    r, t, mf, m = point.r, point.t, point.mf, point.m
    stripe_spec = GridSpec(
        width=6 * (2 * r + 1), height=6 * (2 * r + 1), r=r, torus=True
    )
    stripe = _stripe_attack_wins(stripe_spec, t, mf, m) if r <= 2 else False
    if r == 4 and t == 1:
        lattice = _lattice_attack_wins(m, mf)
    else:
        lattice = False
    return UncertainPoint(
        m=m,
        m_over_m0=m / m0(r, t, mf),
        stripe_wins=stripe,
        lattice_wins=lattice,
    )


def run_uncertain_region(
    *,
    r: int = 4,
    t: int = 1,
    mf: int = 1000,
    fractions: tuple[float, ...] = (1.0, 1.02, 1.1, 1.3, 1.6, 2.0),
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> UncertainRegionResult:
    lower = m0(r, t, mf)
    corner_suppliers = 2 * (2 * r) * r + 1  # 32 square suppliers + 1 mid-side
    sweep_points = [
        UncertainSweepPoint(r=r, t=t, mf=mf, m=max(lower, round(lower * fraction)))
        for fraction in fractions
    ]
    result = parallel_sweep(
        sweep_points,
        _run_uncertain_point,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    points = list(result.results)
    return UncertainRegionResult(
        r=r,
        t=t,
        mf=mf,
        m0=lower,
        corner_suppliers=corner_suppliers,
        lattice_breakable_until=lattice_breakable_max_m(mf, t),
        points=tuple(points),
    )


def run(
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> UncertainRegionResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    return run_uncertain_region(workers=workers, cache=cache, progress=progress)


def table(result: UncertainRegionResult) -> str:
    rows = [
        [
            p.m,
            f"{p.m_over_m0:.2f}",
            p.stripe_wins,
            p.lattice_wins,
            "breakable" if not p.empirically_possible else "no known attack",
        ]
        for p in result.points
    ]
    title = (
        f"E10 - the open region (m0, 2m0) for r={result.r}, t={result.t}, "
        f"mf={result.mf}: m0={result.m0}; corner construction fundable "
        f"up to m = 3*t*mf/50 = {result.lattice_breakable_until}"
    )
    return format_table(
        ["m", "m/m0", "stripe wins", "corner-lattice wins", "verdict"],
        rows,
        title=title,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(table(run_uncertain_region()))


if __name__ == "__main__":  # pragma: no cover
    main()
