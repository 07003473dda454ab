"""NumPy backend unit tests: grid fast build, kernel gates, LazyNodeMap.

The byte-identical *behavior* of the kernel is pinned by the triple
differential in ``test_scenario_fastpath.py`` (reference vs flat vs
vector on the same specs) and by the fuzz runner's third leg; this
module covers the structural pieces underneath it — CSR parity of the
NumPy grid build against the pure-python build, the eligibility gates
that must make ``try_vector_run`` fall through, and the Mapping contract
of the lazy report view.

Everything here needs NumPy; the module skips cleanly without it, which
is exactly what the no-numpy CI leg exercises.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.adversary.placement import RandomPlacement
from repro.network.grid import Grid, GridSpec
from repro.protocols.base import ThresholdNode
from repro.protocols.vectorized import LazyNodeMap
from repro.scenario import ScenarioSpec, preset
from repro.scenario import run as run_scenario
from repro.seams import Tier


# -- grid CSR parity: numpy build vs pure-python build -------------------------

PARITY_SPECS = [
    GridSpec(width=12, height=12, r=1, torus=True),
    GridSpec(width=15, height=10, r=2, torus=True),
    GridSpec(width=7, height=5, r=2, torus=False),
    GridSpec(width=1, height=1, r=1, torus=False),
    GridSpec(width=40, height=1, r=3, torus=False),
    GridSpec(width=1, height=40, r=2, torus=False),
    GridSpec(width=6, height=9, r=1, torus=True),
]


def _python_built(spec: GridSpec) -> Grid:
    return Grid(spec, fast=False)


@pytest.mark.parametrize("spec", PARITY_SPECS, ids=str)
def test_numpy_grid_build_matches_python_build(spec):
    fast = Grid(spec)
    slow = _python_built(spec)
    assert list(fast.neighbor_starts) == list(slow.neighbor_starts)
    assert list(fast.neighbor_ids) == list(slow.neighbor_ids)
    for nid in fast.all_ids():
        assert fast.neighbors(nid) == slow.neighbors(nid)
        assert fast.neighbors_sorted(nid) == slow.neighbors_sorted(nid)


@pytest.mark.parametrize("spec", PARITY_SPECS, ids=str)
def test_csr_arrays_match_flat_arrays(spec):
    for grid in (Grid(spec), _python_built(spec)):
        starts, ids = grid.csr_arrays()
        assert starts.dtype == np.int64 and ids.dtype == np.int64
        assert starts.tolist() == list(grid.neighbor_starts)
        assert ids.tolist() == list(grid.neighbor_ids)


# -- kernel eligibility gates --------------------------------------------------


def _eligible_spec(**overrides) -> ScenarioSpec:
    base = dict(
        grid=GridSpec(width=12, height=12, r=1, torus=True),
        t=1,
        mf=0,
        placement=RandomPlacement(t=1, count=3, seed=1),
        protocol="b",
        behavior="jam",
        m=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _engages(spec: ScenarioSpec) -> bool:
    return isinstance(run_scenario(spec).nodes, LazyNodeMap)


def test_eligible_spec_engages_the_kernel():
    assert _engages(_eligible_spec())


def test_active_adversary_falls_through():
    # mf > 0 with placed bad nodes: the adversary could transmit, so
    # slot order matters and the kernel must decline.
    assert not _engages(_eligible_spec(mf=2))


def test_mf_without_bad_nodes_still_engages():
    # mf > 0 but zero placed bad nodes: nobody holds corrupt budget.
    assert _engages(
        _eligible_spec(mf=2, placement=RandomPlacement(t=1, count=0, seed=0))
    )


def test_protocol_without_vector_build_falls_through():
    # CPA's endorsement chains are slot-order dependent; it registers no
    # vector_build hook.
    assert not _engages(_eligible_spec(protocol="cpa", m=None))


def test_flag_off_falls_through():
    # Below Tier.VECTOR the kernel is never tried, eligible or not.
    for tier in (Tier.FAST, Tier.REFERENCE):
        assert not isinstance(
            run_scenario(_eligible_spec(), tier=tier).nodes, LazyNodeMap
        )


def _megatorus_replica() -> ScenarioSpec:
    # The 10^6-node showcase preset is too slow for the flat engines; a
    # 100x100 grid with its r and torus keeps every other field.
    spec = preset("megatorus")
    grid = GridSpec(width=100, height=100, r=spec.grid.r, torus=spec.grid.torus)
    return spec.replace(grid=grid)


@pytest.mark.parametrize(
    "make_spec",
    [_eligible_spec, _megatorus_replica],
    ids=["eligible", "megatorus-100x100"],
)
def test_kernel_report_matches_flat_report(make_spec):
    # One end-to-end pin right here (the broad sweep lives in the triple
    # differential): same spec through kernel and flat engines.
    spec = make_spec()
    vector_report = run_scenario(spec)
    flat_report = run_scenario(spec, tier=Tier.FAST)
    assert isinstance(vector_report.nodes, LazyNodeMap)
    assert not isinstance(flat_report.nodes, LazyNodeMap)
    assert vector_report.outcome == flat_report.outcome
    assert vector_report.costs == flat_report.costs
    assert vector_report.stats == flat_report.stats


# -- LazyNodeMap Mapping contract ----------------------------------------------


@pytest.fixture(scope="module")
def kernel_report():
    spec = ScenarioSpec(
        grid=GridSpec(width=9, height=9, r=1, torus=True),
        t=1,
        mf=0,
        placement=RandomPlacement(t=1, count=2, seed=5),
        protocol="b",
        behavior="jam",
        m=2,
    )
    report = run_scenario(spec)
    assert isinstance(report.nodes, LazyNodeMap)
    return report


def test_lazy_map_keys_are_ascending_honest_ids(kernel_report):
    nodes = kernel_report.nodes
    honest = [
        nid
        for nid in kernel_report.grid.all_ids()
        if nid not in kernel_report.table.bad_ids
    ]
    assert list(nodes) == honest
    assert len(nodes) == len(honest)
    assert honest[0] in nodes


def test_lazy_map_rejects_bad_and_out_of_range_ids(kernel_report):
    nodes = kernel_report.nodes
    bad = next(iter(kernel_report.table.bad_ids))
    with pytest.raises(KeyError):
        nodes[bad]
    assert bad not in nodes
    with pytest.raises(KeyError):
        nodes[kernel_report.grid.n + 7]
    with pytest.raises(KeyError):
        # A dict raises here too; numpy wraparound indexing must not
        # silently materialize the last node instead.
        nodes[-1]
    assert nodes.get(bad) is None  # Mapping.get must swallow the KeyError


def test_lazy_map_materializes_threshold_nodes_once(kernel_report):
    nodes = kernel_report.nodes
    some_id = next(iter(nodes))
    node = nodes[some_id]
    assert isinstance(node, ThresholdNode)
    assert nodes[some_id] is node  # cached, not rebuilt
    assert node.decided  # broadcast succeeded on this spec
    assert node.received_total >= 0


def test_lazy_map_equals_dict_of_itself(kernel_report):
    nodes = kernel_report.nodes
    assert dict(nodes).keys() == set(nodes)
