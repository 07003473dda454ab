"""Tests for the liar and spoofing adversaries."""

import pytest

from repro.adversary.lying import SpamLiar, SpoofingJammer
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.messages import Transmission
from repro.radio.schedule import TdmaSchedule
from strategies import TABLE_GRIDS, table_world


def setup(bad_coords=((6, 6),), mf=2, r=1):
    grid = Grid(GridSpec(12, 12, r=r, torus=True))
    bad = {grid.id_of(c) for c in bad_coords}
    table = NodeTable(grid, source=0, bad=bad)
    ledger = BudgetLedger(grid.n, default_budget=None, overrides={b: mf for b in bad})
    return grid, table, ledger


class TestSpamLiar:
    def test_lies_in_own_slot_only(self):
        grid, table, ledger = setup()
        liar = SpamLiar(grid, table, ledger)
        bad_id = grid.id_of((6, 6))
        own_slot = TdmaSchedule(grid).slot_of(bad_id)
        for slot in range(TdmaSchedule(grid).period):
            actions = liar.on_slot(0, slot, [])
            if slot == own_slot:
                assert [a.sender for a in actions] == [bad_id]
                assert actions[0].value == 0
            else:
                assert actions == []

    def test_has_pending_until_budget_gone(self):
        grid, table, ledger = setup(mf=1)
        liar = SpamLiar(grid, table, ledger)
        assert liar.has_pending()
        ledger.charge(grid.id_of((6, 6)))
        assert not liar.has_pending()

    def test_multiple_bad_nodes(self):
        grid, table, ledger = setup(bad_coords=((6, 6), (3, 9)))
        liar = SpamLiar(grid, table, ledger)
        total = sum(
            len(liar.on_slot(0, slot, [])) for slot in range(TdmaSchedule(grid).period)
        )
        assert total == 2


class TestSpoofingJammer:
    def test_jams_with_victim_identity(self):
        grid, table, ledger = setup()
        jammer = SpoofingJammer(grid, table, ledger)
        victim = grid.id_of((5, 6))
        actions = jammer.on_slot(0, 0, [Transmission(victim, 1)])
        assert len(actions) == 1
        assert actions[0].spoof_sender == victim
        assert actions[0].value == 0
        assert table.is_bad(actions[0].sender)

    def test_out_of_range_victims_ignored(self):
        grid, table, ledger = setup()
        far_victim = grid.id_of((0, 0))  # distance > 2r from (6, 6)
        assert jammer_actions(grid, table, ledger, far_victim) == []

    def test_budget_respected(self):
        grid, table, ledger = setup(mf=1)
        jammer = SpoofingJammer(grid, table, ledger)
        victim = grid.id_of((5, 6))
        first = jammer.on_slot(0, 0, [Transmission(victim, 1)])
        ledger.charge(first[0].sender)
        assert jammer.on_slot(0, 1, [Transmission(victim, 1)]) == []

    def test_one_transmission_per_jammer_per_slot(self):
        grid, table, ledger = setup(mf=10)
        jammer = SpoofingJammer(grid, table, ledger)
        v1, v2 = grid.id_of((5, 6)), grid.id_of((7, 6))
        actions = jammer.on_slot(0, 0, [Transmission(v1, 1), Transmission(v2, 1)])
        assert len(actions) == 1


def jammer_actions(grid, table, ledger, victim):
    jammer = SpoofingJammer(grid, table, ledger)
    return jammer.on_slot(0, 0, [Transmission(victim, 1)])


@pytest.mark.parametrize("spec", TABLE_GRIDS, ids=str)
def test_jammer_table_is_every_bad_node_within_2r_ascending(spec):
    grid, table, ledger = table_world(spec)
    expected = {}
    for sender in grid.all_ids():
        row = tuple(
            bad for bad in table.bad_ids if grid.distance(bad, sender) <= 2 * spec.r
        )
        if row:
            expected[sender] = row
    assert SpoofingJammer(grid, table, ledger)._jammers_by_sender() == expected
