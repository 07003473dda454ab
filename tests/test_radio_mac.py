"""Tests for the slotted-round MAC driver."""

import pytest

from repro.adversary.base import NullAdversary
from repro.errors import ConfigurationError
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.mac import RoundDriver, RunLimits
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from repro.sim.trace import Tracer


class RecorderNode:
    """Minimal protocol node: sends a fixed number of messages, records RX."""

    def __init__(self, node_id, sends=0, value=1):
        self.node_id = node_id
        self.sends = sends
        self.value = value
        self.received = []
        self.rounds_seen = 0

    def has_pending(self):
        return self.sends > 0

    def pop_send(self):
        self.sends -= 1
        return self.value, MessageKind.DATA

    def on_receive(self, sender, value, kind):
        self.received.append((sender, value, kind))

    def on_round_end(self, round_index):
        self.rounds_seen = round_index + 1


def build(width=12, r=1, bad=(), sends_for=None, default_budget=None, adversary=None):
    grid = Grid(GridSpec(width, width, r=r, torus=True))
    table = NodeTable(grid, source=0, bad=set(bad))
    nodes = {
        nid: RecorderNode(nid, sends=(sends_for or {}).get(nid, 0))
        for nid in table.good_ids
    }
    ledger = BudgetLedger(grid.n, default_budget=default_budget)
    driver = RoundDriver(
        grid, table, nodes, adversary or NullAdversary(), ledger
    )
    return grid, table, nodes, ledger, driver


def test_single_sender_delivers_to_neighbors():
    grid, table, nodes, ledger, driver = build(sends_for={0: 1})
    stats = driver.run(RunLimits(max_rounds=5))
    assert stats.quiescent
    assert stats.honest_transmissions == 1
    for nb in grid.neighbors(0):
        assert nodes[nb].received == [(0, 1, MessageKind.DATA)]
    assert ledger.sent(0) == 1


def test_node_sends_once_per_round():
    grid, table, nodes, ledger, driver = build(sends_for={0: 3})
    stats = driver.run(RunLimits(max_rounds=10))
    assert stats.rounds >= 3  # one send per owned slot per round
    assert ledger.sent(0) == 3


def test_budget_stops_sender():
    grid, table, nodes, ledger, driver = build(
        sends_for={0: 5}, default_budget=2
    )
    stats = driver.run(RunLimits(max_rounds=10))
    assert ledger.sent(0) == 2
    assert nodes[0].has_pending()  # wants more but cannot afford it
    assert stats.quiescent  # driver treats budget-starved nodes as inactive


def test_missing_protocol_node_rejected():
    grid = Grid(GridSpec(12, 12, r=1, torus=True))
    table = NodeTable(grid, source=0, bad=set())
    ledger = BudgetLedger(grid.n, default_budget=None)
    with pytest.raises(ConfigurationError):
        RoundDriver(grid, table, {0: RecorderNode(0)}, NullAdversary(), ledger)


def test_adversary_cannot_use_honest_sender():
    class RogueAdversary(NullAdversary):
        def on_slot(self, round_index, slot, honest):
            return [BadTransmission(sender=1, value=0)] if slot == 0 else []

    grid, table, nodes, ledger, driver = build(
        sends_for={0: 1}, adversary=RogueAdversary()
    )
    with pytest.raises(ConfigurationError):
        driver.run(RunLimits(max_rounds=2))


def test_bad_transmissions_charged_and_counted():
    class OneLie(NullAdversary):
        def __init__(self, bad_id):
            self.bad_id = bad_id
            self.done = False

        def on_slot(self, round_index, slot, honest):
            if not self.done and slot == 0:
                self.done = True
                return [BadTransmission(sender=self.bad_id, value=9)]
            return []

    grid = Grid(GridSpec(12, 12, r=1, torus=True))
    bad_id = grid.id_of((6, 6))
    grid, table, nodes, ledger, driver = build(
        bad=[bad_id], sends_for={0: 1}, adversary=OneLie(bad_id)
    )
    stats = driver.run(RunLimits(max_rounds=3))
    assert stats.byzantine_transmissions == 1
    assert ledger.sent(bad_id) == 1
    heard = [nid for nid, node in nodes.items() if (bad_id, 9, MessageKind.DATA) in node.received]
    assert set(heard) == set(grid.neighbors(bad_id)) - {bad_id}


def test_batching_compresses_rounds():
    _, _, _, ledger_slow, driver_slow = build(sends_for={0: 6})
    stats_slow = driver_slow.run(RunLimits(max_rounds=20))

    grid = Grid(GridSpec(12, 12, r=1, torus=True))
    table = NodeTable(grid, source=0, bad=set())
    nodes = {nid: RecorderNode(nid, sends=6 if nid == 0 else 0) for nid in table.good_ids}
    ledger = BudgetLedger(grid.n, default_budget=None)
    driver = RoundDriver(
        grid, table, nodes, NullAdversary(), ledger, batch_per_slot=6
    )
    stats_fast = driver.run(RunLimits(max_rounds=20))

    assert ledger.sent(0) == ledger_slow.sent(0) == 6
    assert stats_fast.rounds < stats_slow.rounds
    assert stats_fast.honest_transmissions == stats_slow.honest_transmissions == 6


def test_round_end_hook_called_every_round():
    grid, table, nodes, ledger, driver = build(sends_for={0: 2})
    stats = driver.run(RunLimits(max_rounds=10))
    assert nodes[5].rounds_seen == stats.rounds


def test_max_rounds_caps_run():
    grid, table, nodes, ledger, driver = build(sends_for={0: 50})
    stats = driver.run(RunLimits(max_rounds=3))
    assert stats.rounds == 3
    assert not stats.quiescent


def test_invalid_limits():
    with pytest.raises(ConfigurationError):
        RunLimits(max_rounds=0)


def test_stats_per_kind():
    grid, table, nodes, ledger, driver = build(sends_for={0: 2})
    stats = driver.run(RunLimits(max_rounds=10))
    assert stats.per_kind_honest[MessageKind.DATA] == 2
    assert stats.per_kind_honest[MessageKind.NACK] == 0


def test_traced_driver_needs_the_reference_loop():
    # The batched loop emits no radio.deliver events; a traced driver
    # that asked for it must fail loudly, never trace silently less.
    grid = Grid(GridSpec(12, 12, r=1, torus=True))
    table = NodeTable(grid, source=0, bad=set())
    nodes = {nid: RecorderNode(nid) for nid in table.good_ids}
    ledger = BudgetLedger(grid.n, default_budget=None)
    with pytest.raises(ConfigurationError, match="fast=False"):
        RoundDriver(
            grid, table, nodes, NullAdversary(), ledger, tracer=Tracer(True)
        )


def test_traced_reference_driver_emits_every_delivery():
    grid = Grid(GridSpec(12, 12, r=1, torus=True))
    table = NodeTable(grid, source=0, bad=set())
    nodes = {
        nid: RecorderNode(nid, sends=2 if nid in (0, 77) else 0)
        for nid in table.good_ids
    }
    ledger = BudgetLedger(grid.n, default_budget=None)
    tracer = Tracer(True)
    driver = RoundDriver(
        grid, table, nodes, NullAdversary(), ledger, tracer=tracer, fast=False
    )
    stats = driver.run(RunLimits(max_rounds=10))
    events = tracer.of_kind("radio.deliver")
    assert len(events) == stats.deliveries > 0
    heard = sorted(
        (event.data["receiver"], event.data["sender"]) for event in events
    )
    received = sorted(
        (nid, sender)
        for nid, node in nodes.items()
        for sender, _value, _kind in node.received
    )
    assert heard == received
