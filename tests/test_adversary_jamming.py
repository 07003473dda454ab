"""Tests for the jamming adversaries."""

import pytest

from repro.adversary.jamming import PlannedJammer, ThresholdGuardJammer
from repro.errors import ConfigurationError
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.medium import Delivery, DeliveryBatch, Medium
from repro.radio.messages import MessageKind, Transmission


def setup(r=1, width=12, bad_coords=((6, 6),), mf=3):
    grid = Grid(GridSpec(width, width, r=r, torus=True))
    bad = {grid.id_of(c) for c in bad_coords}
    table = NodeTable(grid, source=0, bad=bad)
    overrides = {b: mf for b in bad}
    ledger = BudgetLedger(grid.n, default_budget=None, overrides=overrides)
    return grid, table, ledger


class FakeNode:
    def __init__(self, decided=False):
        self.decided = decided


class TestThresholdGuardJammer:
    def test_no_jam_below_threshold(self):
        grid, table, ledger = setup()
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=3)
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        sender = grid.id_of((5, 6))  # neighbor of the bad node
        actions = jammer.on_slot(0, 0, [Transmission(sender, 1)])
        assert actions == []  # nobody is at threshold-1 yet

    def test_jams_exactly_at_tipping_point(self):
        grid, table, ledger = setup(mf=5)
        threshold = 3
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=threshold)
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        medium = Medium(grid)
        sender = grid.id_of((5, 6))
        # Deliver threshold-1 clean copies to the sender's neighbors.
        for _ in range(threshold - 1):
            deliveries = medium.resolve_slot([Transmission(sender, 1)], [])
            jammer.observe(deliveries)
        receiver = grid.id_of((6, 6 - 1))  # wait: bad is (6,6); pick (5,5)
        actions = jammer.on_slot(0, 0, [Transmission(sender, 1)])
        assert len(actions) == 1
        assert table.is_bad(actions[0].sender)
        assert jammer.jams == 1

    def test_jammer_skips_decided_receivers(self):
        grid, table, ledger = setup()
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=1)
        jammer.bind_decided({nid: FakeNode(decided=True) for nid in table.good_ids})
        sender = grid.id_of((5, 6))
        assert jammer.on_slot(0, 0, [Transmission(sender, 1)]) == []

    def test_jammer_ignores_wrong_value_transmissions(self):
        grid, table, ledger = setup()
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=1)
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        sender = grid.id_of((5, 6))
        assert jammer.on_slot(0, 0, [Transmission(sender, 0)]) == []

    def test_jammer_respects_budget(self):
        grid, table, ledger = setup(mf=1)
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=1)
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        sender = grid.id_of((5, 6))
        first = jammer.on_slot(0, 0, [Transmission(sender, 1)])
        assert len(first) == 1
        ledger.charge(first[0].sender)  # the driver would do this
        second = jammer.on_slot(0, 1, [Transmission(sender, 1)])
        assert second == []  # out of budget: receiver will accept

    def test_protected_set_limits_attention(self):
        grid, table, ledger = setup()
        far_receiver = grid.id_of((0, 1))
        jammer = ThresholdGuardJammer(
            grid, table, ledger, threshold=1, protected=[far_receiver]
        )
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        # A transmission near the bad node but far from the protected
        # receiver draws no jam.
        sender = grid.id_of((5, 6))
        assert jammer.on_slot(0, 0, [Transmission(sender, 1)]) == []

    def test_observe_counts_only_clean_vtrue_data(self):
        grid, table, ledger = setup()
        receiver = grid.id_of((3, 3))
        jammer = ThresholdGuardJammer(
            grid, table, ledger, threshold=5, protected=[receiver]
        )
        jammer.observe(
            DeliveryBatch.of([
                Delivery(receiver, 1, 1, MessageKind.DATA, corrupted=False),
                Delivery(receiver, 1, 1, MessageKind.DATA, corrupted=True),
                Delivery(receiver, 1, 0, MessageKind.DATA, corrupted=False),
                Delivery(receiver, 1, 1, MessageKind.NACK, corrupted=False),
            ])
        )
        assert jammer.clean_copies_at(receiver) == 1


class TestQuietHorizon:
    """``quiet_bursts`` against a twin jammer stepped burst by burst."""

    def _primed(self, grid, table, ledger, threshold):
        # Uneven clean counts around the victim: (4,5) and (4,7) hear
        # three copies from (3,6), (4,5) one more from (3,4); (4,5) has
        # then decided, so (4,7) sets the horizon.
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=threshold)
        decided = grid.id_of((4, 5))
        jammer.bind_decided(
            {nid: FakeNode(decided=nid == decided) for nid in table.good_ids}
        )
        medium = Medium(grid)
        jammer.observe(
            medium.resolve_slot([Transmission(grid.id_of((3, 6)), 1)], []),
            repeat=3,
        )
        jammer.observe(
            medium.resolve_slot([Transmission(grid.id_of((3, 4)), 1)], [])
        )
        return jammer

    def test_horizon_is_exactly_the_repeats_let_through(self):
        grid, table, ledger = setup(bad_coords=((4, 6),), mf=5)
        threshold = 9
        main = self._primed(grid, table, ledger, threshold)
        shadow = self._primed(grid, table, ledger, threshold)
        tx = Transmission(grid.id_of((5, 6)), 1)
        batch = Medium(grid).resolve_slot([tx], [])

        assert main.on_slot(0, 0, [tx]) == []
        quiet = main.quiet_bursts()
        # (4,7) holds 3 clean copies, 8 tips it: four more are safe.
        assert quiet == threshold - 2 - 3
        assert shadow.on_slot(0, 0, [tx]) == []
        for _ in range(quiet):
            shadow.observe(batch)
            assert shadow.on_slot(0, 0, [tx]) == []
        shadow.observe(batch)
        jams = shadow.on_slot(0, 0, [tx])
        assert [jam.sender for jam in jams] == [grid.id_of((4, 6))]
        assert shadow.quiet_bursts() == 0

        # One observe with repeat stands for the repeats one by one.
        main.observe(batch, repeat=quiet + 1)
        assert main._clean == shadow._clean

    def test_at_risk_slot_promises_nothing_even_without_a_jam(self):
        grid, table, ledger = setup(bad_coords=((4, 6),), mf=0)
        jammer = self._primed(grid, table, ledger, threshold=4)
        tx = Transmission(grid.id_of((5, 6)), 1)
        assert jammer.on_slot(0, 0, [tx]) == []  # at risk, but no budget
        assert jammer.quiet_bursts() == 0

    def test_horizon_resets_on_every_call(self):
        grid, table, ledger = setup()
        jammer = ThresholdGuardJammer(grid, table, ledger, threshold=5)
        jammer.bind_decided({nid: FakeNode() for nid in table.good_ids})
        assert jammer.on_slot(0, 0, [Transmission(grid.id_of((5, 6)), 1)]) == []
        assert jammer.quiet_bursts() == 5 - 2
        assert jammer.on_slot(0, 1, []) == []
        assert jammer.quiet_bursts() == 0


class TestPlannedJammer:
    def test_executes_quota(self):
        grid, table, ledger = setup(mf=10)
        bad_id = grid.id_of((6, 6))
        victim = grid.id_of((5, 6))
        jammer = PlannedJammer(grid, table, ledger, {bad_id: {victim: 2}})
        tx = Transmission(victim, 1)
        assert len(jammer.on_slot(0, 0, [tx])) == 1
        assert len(jammer.on_slot(1, 0, [tx])) == 1
        assert jammer.on_slot(2, 0, [tx]) == []  # quota exhausted
        assert jammer.jams == 2

    def test_unlimited_quota_until_budget(self):
        grid, table, ledger = setup(mf=2)
        bad_id = grid.id_of((6, 6))
        victim = grid.id_of((5, 6))
        jammer = PlannedJammer(grid, table, ledger, {bad_id: {victim: None}})
        tx = Transmission(victim, 1)
        for _ in range(2):
            actions = jammer.on_slot(0, 0, [tx])
            assert len(actions) == 1
            ledger.charge(actions[0].sender)
        assert jammer.on_slot(0, 0, [tx]) == []

    def test_unassigned_victims_ignored(self):
        grid, table, ledger = setup()
        bad_id = grid.id_of((6, 6))
        jammer = PlannedJammer(grid, table, ledger, {bad_id: {}})
        assert jammer.on_slot(0, 0, [Transmission(grid.id_of((5, 6)), 1)]) == []

    def test_honest_jammer_rejected(self):
        grid, table, ledger = setup()
        with pytest.raises(ConfigurationError):
            PlannedJammer(grid, table, ledger, {0: {1: 1}})

    def test_one_transmission_per_jammer_per_slot(self):
        grid, table, ledger = setup(mf=10)
        bad_id = grid.id_of((6, 6))
        v1, v2 = grid.id_of((5, 6)), grid.id_of((7, 6))
        jammer = PlannedJammer(grid, table, ledger, {bad_id: {v1: None, v2: None}})
        actions = jammer.on_slot(0, 0, [Transmission(v1, 1), Transmission(v2, 1)])
        assert len(actions) == 1  # same physical radio: one tx per slot
