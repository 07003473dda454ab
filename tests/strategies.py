"""Shared scenario/grid generators for the test suite.

One home for the spec and traffic generators that used to be scattered
across ``test_driver_consistency.py``, ``test_medium_properties.py``,
and ``test_scenario_fastpath.py``. The Hypothesis strategies are thin
wrappers over the *same* samplers ``repro.fuzz`` uses
(:func:`repro.fuzz.sampler.sample_spec`), so property tests and the fuzz
CLI explore one spec space — a scenario shape either tool can produce,
the other can reproduce.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.adversary.placement import RandomPlacement
from repro.fuzz.sampler import sample_spec
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.medium import Medium
from repro.radio.messages import Transmission
from repro.radio.schedule import TdmaSchedule
from repro.scenario import ScenarioSpec

# -- whole scenarios (the fuzz sampler as a Hypothesis strategy) ---------------


def scenario_specs(
    protocols: tuple[str, ...] | None = None,
    behavior: str | None | type(...) = ...,
) -> st.SearchStrategy[ScenarioSpec]:
    """Valid random :class:`ScenarioSpec` values via the fuzz sampler.

    ``protocols``/``behavior`` narrow the pool exactly like
    :class:`repro.fuzz.SpecSampler` does.
    """

    def build(seed: int) -> ScenarioSpec:
        return sample_spec(
            random.Random(seed), protocols=protocols, behavior=behavior
        )

    return st.integers(0, 2**32 - 1).map(build)


def vector_candidate_specs() -> st.SearchStrategy[ScenarioSpec]:
    """Sampler-shaped threshold-protocol specs for the triple differential.

    Half the draws force ``mf=0`` so the vectorized kernel's engagement
    condition (adversary can never transmit) is hit often; the rest keep
    the sampled ``mf`` and exercise the fall-through path. Degenerate
    stripe grids and ``max_rounds=1`` caps arrive through the sampler
    exactly as ``repro fuzz`` would produce them.
    """

    def build(pair: tuple[int, bool]) -> ScenarioSpec:
        seed, force_broke = pair
        spec = sample_spec(
            random.Random(seed), protocols=("b", "koo", "heter")
        )
        return spec.replace(mf=0) if force_broke else spec

    return st.tuples(st.integers(0, 2**32 - 1), st.booleans()).map(build)


# -- the PR-4 equivalence-suite base scenario ----------------------------------

EQUIVALENCE_GRID = GridSpec(width=15, height=15, r=1, torus=True)


def equivalence_spec(**overrides) -> ScenarioSpec:
    """The fast-vs-reference suite's base scenario, with overrides."""
    base = dict(
        grid=EQUIVALENCE_GRID,
        t=1,
        mf=2,
        placement=RandomPlacement(t=1, count=6, seed=11),
        protocol="b",
        m=4,
        batch_per_slot=2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- driver-consistency threshold scenarios ------------------------------------

DRIVER_GRID = GridSpec(width=12, height=12, r=1, torus=True)

#: Random threshold-protocol configurations for driver accounting tests.
threshold_scenarios = st.fixed_dictionaries(
    {
        "t": st.integers(1, 2),
        "mf": st.integers(0, 3),
        "m": st.integers(1, 6),
        "bad_count": st.integers(0, 10),
        "seed": st.integers(0, 10**6),
        "behavior": st.sampled_from(["jam", "lie", "none"]),
    }
)


def threshold_spec(cfg: dict) -> ScenarioSpec:
    """A :class:`ScenarioSpec` from one ``threshold_scenarios`` draw."""
    return ScenarioSpec(
        grid=DRIVER_GRID,
        t=cfg["t"],
        mf=cfg["mf"],
        placement=RandomPlacement(
            t=cfg["t"], count=cfg["bad_count"], seed=cfg["seed"]
        ),
        protocol="b",
        behavior=cfg["behavior"],
        m=cfg["m"],
        batch_per_slot=2,
    )


# -- medium collision-property world -------------------------------------------

MEDIUM_GRID = Grid(GridSpec(15, 15, r=2, torus=True))
MEDIUM = Medium(MEDIUM_GRID)
MEDIUM_SCHEDULE = TdmaSchedule(MEDIUM_GRID)

#: One TDMA slot class of the medium-property world.
slot_classes = st.integers(0, MEDIUM_SCHEDULE.period - 1)

#: Arbitrary Byzantine sender sets for the medium-property world.
medium_bad_nodes = st.lists(
    st.integers(0, MEDIUM_GRID.n - 1), min_size=0, max_size=4, unique=True
)


def honest_for_slot(slot: int, how_many: int) -> list[Transmission]:
    """Non-interfering honest transmitters: owners of one slot class."""
    owners = MEDIUM_SCHEDULE.owners(slot)
    return [Transmission(nid, 1) for nid in owners[:how_many]]


# -- adversary neighbor-table worlds -------------------------------------------

#: Torus and bounded grids for r in {1, 2, 3} (the torus at its minimum side).
TABLE_GRIDS = [
    spec
    for r in (1, 2, 3)
    for spec in (
        GridSpec(width=2 * (2 * r + 1), height=2 * (2 * r + 1), r=r, torus=True),
        GridSpec(width=9, height=7, r=r, torus=False),
    )
]


def table_world(spec: GridSpec, fast: bool = True):
    """A world whose ``width`` budgeted bad nodes lie in the first two rows.

    Nodes far from those rows have every neighbor good, so the default
    protected set gives them full rows.
    """
    grid = Grid(spec, fast=fast)
    bad = set(random.Random(spec.r).sample(range(1, 2 * spec.width), spec.width))
    table = NodeTable(grid, source=0, bad=bad)
    ledger = BudgetLedger(grid.n, default_budget=None, overrides={b: 1 for b in bad})
    return grid, table, ledger
