"""Determinism suite: parallel sweeps reproduce serial runs bit-for-bit.

The acceptance bar for the parallel engine: fanning an experiment's
points out over worker processes must not change a single outcome, cost,
or message count relative to the historical serial loop.

This suite is also the referee for the slot-resolution fast path: whole
seeded scenarios are driven through the flat-buffer resolver and the
historical dict-based reference resolver, and every recorded slot's
delivery list must be byte-for-byte equal.
"""

import pytest

import repro.radio.mac as mac
from repro.experiments.e1_impossibility import run_impossibility
from repro.experiments.e2_figure2 import (
    DEFAULT_SWEEP_POINTS,
    run_classic,
    run_figure2_generalized,
    run_sweep,
)
from repro.experiments.e7_reactive import run_reactive
from repro.experiments.e9_ablations import run_growth_shape
from repro.network.grid import Grid, GridSpec
from repro.radio.medium import Medium
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_spec
from repro.seams import Tier
from repro.adversary.placement import RandomPlacement


class TestE2Determinism:
    @pytest.mark.slow
    def test_parallel_sweep_equals_serial_point_for_point(self):
        serial = run_sweep(points=DEFAULT_SWEEP_POINTS, workers=1)
        parallel = run_sweep(points=DEFAULT_SWEEP_POINTS, workers=4)
        assert serial.points == parallel.points
        assert len(serial.results) == len(DEFAULT_SWEEP_POINTS)
        for ours, theirs in zip(serial.results, parallel.results):
            # Same outcomes, paper quantities, and message counts.
            assert ours == theirs
        # The paper instance (m = 59, mf = 1000) keeps its claims.
        paper = {s.m: s for s in serial.results}[59]
        assert paper.m0 == 58
        assert paper.broadcast_failed
        assert paper.p_clean <= 1000
        assert paper.defender_spend <= 1000


class TestE7Determinism:
    def test_parallel_sweep_equals_serial_point_for_point(self):
        kwargs = dict(width=12, bad_count=5, seeds=(0, 1, 2, 3))
        serial = run_reactive(workers=1, **kwargs)
        parallel = run_reactive(workers=4, **kwargs)
        assert serial.points == parallel.points  # per-seed outcomes + costs
        assert serial == parallel  # full result incl. forced-failure run


class TestE1Determinism:
    def test_parallel_sweep_equals_serial(self):
        serial = run_impossibility(ms=(1, 2, 4, 5), workers=1)
        parallel = run_impossibility(ms=(1, 2, 4, 5), workers=2)
        assert serial == parallel


class TestMigratedSerialSpots:
    """E2's classic run and E9b's growth pair now ride the substrate."""

    def test_e2_classic_parallel_equals_serial(self):
        serial = run_classic(workers=1)
        parallel = run_classic(workers=2)
        assert serial == parallel
        assert serial.m == 59 and serial.m0 == 58
        assert serial.broadcast_failed

    @pytest.mark.slow
    def test_e9b_growth_shape_parallel_equals_serial(self):
        serial = run_growth_shape(workers=1)
        parallel = run_growth_shape(workers=2)
        assert serial == parallel
        assert not serial.homogeneous_success
        assert serial.heterogeneous_success


class _RecordingMedium(Medium):
    """Medium that snapshots every slot's transmissions as it resolves."""

    recorded: list

    def __init__(self, grid, **kwargs):
        super().__init__(grid, **kwargs)
        type(self).recorded.append((grid.spec, slots := []))
        self._slots = slots

    def resolve_slot(self, honest, byzantine):
        self._slots.append((list(honest), list(byzantine)))
        return super().resolve_slot(honest, byzantine)


class TestFastPathScenarioEquivalence:
    """Replay real scenarios' slot traffic through both resolvers.

    The recorded transmissions come from actual runs (driver, protocol
    nodes, adversaries all live), so the comparison covers exactly the
    traffic shapes the simulator produces — not just synthetic slots.
    """

    def _harvest(self, monkeypatch, run):
        recorded = []
        medium_cls = type(
            "_Recorder", (_RecordingMedium,), {"recorded": recorded}
        )
        monkeypatch.setattr(mac, "Medium", medium_cls)
        run()
        assert recorded, "scenario produced no medium traffic"
        return recorded

    def _assert_equivalent(self, recorded):
        slots = 0
        for spec, slot_list in recorded:
            grid = Grid(spec)
            fast = Medium(grid, fast=True)
            reference = Medium(grid, fast=False)
            for honest, byzantine in slot_list:
                assert fast.resolve_slot(honest, byzantine) == (
                    reference.resolve_slot(honest, byzantine)
                )
                slots += 1
        assert slots > 0

    def test_e7_reactive_scenario(self, monkeypatch):
        # Seeded B_reactive run: coded jams, NACK traffic, spoofed
        # senders, and silence outcomes all appear in the slot stream.
        spec = ScenarioSpec(
            grid=GridSpec(width=12, height=12, r=1, torus=True),
            t=1,
            mf=3,
            mmax=10**6,
            protocol="reactive",
            placement=RandomPlacement(t=1, count=5, seed=503),
            seed=3,
        )
        recorded = self._harvest(monkeypatch, lambda: run_spec(spec))
        self._assert_equivalent(recorded)

    @pytest.mark.slow
    def test_e2_figure2_scenario(self, monkeypatch):
        # The paper's corner-starvation instance: planned jamming of the
        # supplier quadrants plus the batched source phase.
        recorded = self._harvest(
            monkeypatch, lambda: run_figure2_generalized(m=57, mf=1000)
        )
        self._assert_equivalent(recorded)

    def test_whole_run_reference_path_matches_fast_path(self):
        # Re-run a full scenario at the reference tier: the end-to-end
        # report must not change in any observable way.
        spec = ScenarioSpec(
            grid=GridSpec(width=12, height=12, r=1, torus=True),
            t=1,
            mf=2,
            mmax=10**6,
            protocol="reactive",
            placement=RandomPlacement(t=1, count=4, seed=77),
            seed=5,
        )
        fast_report = run_spec(spec)
        slow_report = run_spec(spec, tier=Tier.REFERENCE)
        assert fast_report.outcome == slow_report.outcome
        assert fast_report.costs == slow_report.costs
        assert fast_report.stats == slow_report.stats
