"""Bundled scenario presets: the paper's headline instances, ready to run.

``python -m repro scenario run <name>`` resolves names here;
``python -m repro scenario dump <name>`` prints the JSON form, which is
the recommended starting point for hand-written scenario files.

Presets are factories (not constants) so that importing this module
stays cheap and grid-derived data (band node ids) is computed on demand.
"""

from __future__ import annotations

from typing import Callable

from repro.adversary.placement import RandomPlacement, StripePlacement, band_ids, two_stripe_band
from repro.analysis.bounds import m0
from repro.errors import ConfigurationError
from repro.network.grid import GridSpec
from repro.scenario.spec import ScenarioSpec


def _quickstart() -> ScenarioSpec:
    """Protocol B at the Theorem-2 budget vs a worst-case stripe (§3)."""
    r, t, mf = 2, 2, 3
    return ScenarioSpec(
        grid=GridSpec(width=30, height=30, r=r, torus=True),
        t=t,
        mf=mf,
        placement=StripePlacement(y0=8, t=t),
        protocol="b",
        m=2 * m0(r, t, mf),
    )


def _stripe_band(m_factor_num: int, m_factor_den: int, delta: int) -> ScenarioSpec:
    """Two-stripe victim band at ``m = m0 * num/den + delta`` (E1 shape)."""
    r, t, mf, width = 2, 2, 3, 30
    spec = GridSpec(width=width, height=width, r=r, torus=True)
    placement, band_rows = two_stripe_band(spec, t=t, band_height=6, below_y0=8)
    lower = m0(r, t, mf)
    return ScenarioSpec(
        grid=spec,
        t=t,
        mf=mf,
        placement=placement,
        protocol="b",
        m=lower * m_factor_num // m_factor_den + delta,
        protected=band_ids(spec, band_rows),
        batch_per_slot=4,
    )


def _stripe_impossibility() -> ScenarioSpec:
    """Theorem 1: the band starves at ``m = m0 - 1``."""
    return _stripe_band(1, 1, -1)


def _theorem2() -> ScenarioSpec:
    """Theorem 2: the same adversary loses at ``m = 2*m0``."""
    return _stripe_band(2, 1, 0)


def _figure2() -> ScenarioSpec:
    """Figure 2's worked example: broadcast fails despite ``m = m0 + 1``."""
    from repro.experiments.e2_figure2 import paper_spec

    return paper_spec()


def _megatorus() -> ScenarioSpec:
    """10^6-node torus broadcast — the vectorized kernel's showcase.

    A 1000x1000 torus at ``r=2`` (1000 is a multiple of ``2r+1``; ``r=1``
    is impossible since 1000 is not a multiple of 3) with zero placed
    bad nodes, so the adversary can never transmit and the run is
    eligible for the NumPy whole-grid round kernel. Per-node engines
    would need minutes for this instance; the kernel completes it in
    seconds.
    """
    t = 1
    return ScenarioSpec(
        grid=GridSpec(width=1000, height=1000, r=2, torus=True),
        t=t,
        mf=1,
        placement=RandomPlacement(t=t, count=0, seed=0),
        protocol="b",
        behavior="none",
        batch_per_slot=4,
        seed=0,
    )


def _reactive() -> ScenarioSpec:
    """B_reactive with the adversary's budget unknown to the protocol (§5)."""
    r, t, mf = 1, 1, 2
    return ScenarioSpec(
        grid=GridSpec(width=18, height=18, r=r, torus=True),
        t=t,
        mf=mf,
        mmax=10**6,
        placement=RandomPlacement(t=t, count=8, seed=1000),
        protocol="reactive",
        seed=0,
    )


_PRESETS: dict[str, Callable[[], ScenarioSpec]] = {
    "quickstart": _quickstart,
    "stripe-impossibility": _stripe_impossibility,
    "theorem2": _theorem2,
    "figure2": _figure2,
    "megatorus": _megatorus,
    "reactive": _reactive,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset(name: str) -> ScenarioSpec:
    """Build a bundled preset scenario; unknown names list the known set."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        known = ", ".join(_PRESETS)
        raise ConfigurationError(
            f"unknown scenario preset {name!r}; bundled presets: {known}"
        ) from None
    return factory()
