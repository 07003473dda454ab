"""Tests for the §5 reactive node and B_reactive integration."""

import pytest

from repro.adversary.placement import RandomPlacement
from repro.errors import ConfigurationError
from repro.network.grid import GridSpec
from repro.protocols.reactive import (
    CORRUPT_MARKER,
    NACK_PAYLOAD,
    ReactiveNode,
    ReactivePhase,
)
from repro.radio.messages import MessageKind
from repro.scenario import ScenarioSpec, run
from repro.types import Role


def make_node(role=Role.GOOD, t=1, r=1, quiet_limit=None):
    return ReactiveNode(
        node_id=7,
        role=role,
        source_id=0,
        t=t,
        r=r,
        vtrue=1,
        quiet_limit=quiet_limit,
    )


class TestReactiveNodeUnit:
    def test_source_starts_broadcasting(self):
        node = make_node(role=Role.SOURCE)
        assert node.decided and node.accepted_value == 1
        assert node.phase is ReactivePhase.BROADCASTING
        assert node.has_pending()
        value, kind = node.pop_send()
        assert (value, kind) == (1, MessageKind.DATA)

    def test_good_node_accepts_from_source(self):
        node = make_node()
        node.on_receive(0, 1, MessageKind.DATA)
        assert node.decided and node.accepted_value == 1
        assert node.has_pending()  # relays its value

    def test_good_node_needs_t_plus_1_distinct_endorsers(self):
        node = make_node(t=2)
        node.on_receive(5, 1, MessageKind.DATA)
        node.on_receive(5, 1, MessageKind.DATA)  # duplicate sender
        node.on_receive(6, 1, MessageKind.DATA)
        assert not node.decided
        node.on_receive(8, 1, MessageKind.DATA)
        assert node.decided

    def test_mixed_values_tracked_separately(self):
        node = make_node(t=1)
        node.on_receive(5, 0, MessageKind.DATA)
        node.on_receive(6, 1, MessageKind.DATA)
        assert not node.decided
        node.on_receive(7, 0, MessageKind.DATA)
        assert node.decided and node.accepted_value == 0

    def test_corrupt_reception_triggers_nack(self):
        node = make_node()
        node.on_receive(5, CORRUPT_MARKER, MessageKind.DATA)
        assert node.has_pending()
        value, kind = node.pop_send()
        assert (value, kind) == (NACK_PAYLOAD, MessageKind.NACK)
        assert node.nacks_sent == 1

    def test_corrupt_nack_also_triggers_nack(self):
        # A garbled NACK is indistinguishable from garbled data.
        node = make_node()
        node.on_receive(5, CORRUPT_MARKER, MessageKind.NACK)
        assert node.has_pending()

    def test_nack_triggers_retransmission_while_broadcasting(self):
        node = make_node(role=Role.SOURCE)
        node.pop_send()
        assert not node.has_pending()
        node.on_receive(5, NACK_PAYLOAD, MessageKind.NACK)
        node.on_round_end(0)
        assert node.has_pending()  # retransmission queued
        assert node.pop_send() == (1, MessageKind.DATA)
        assert node.data_sent == 2

    def test_quiet_window_finishes_broadcast(self):
        node = make_node(role=Role.SOURCE, quiet_limit=3)
        node.pop_send()
        for round_index in range(3):
            node.on_round_end(round_index)
        assert node.phase is ReactivePhase.DONE
        # After DONE, NACKs are ignored.
        node.on_receive(5, NACK_PAYLOAD, MessageKind.NACK)
        node.on_round_end(3)
        assert not node.has_pending()

    def test_failure_indication_resets_quiet_window(self):
        node = make_node(role=Role.SOURCE, quiet_limit=2)
        node.pop_send()
        node.on_round_end(0)  # quiet = 1
        node.on_receive(5, NACK_PAYLOAD, MessageKind.NACK)
        node.on_round_end(1)  # reset + retransmit
        assert node.phase is ReactivePhase.BROADCASTING
        node.pop_send()
        node.on_round_end(2)
        node.on_round_end(3)
        assert node.phase is ReactivePhase.DONE

    def test_pop_without_pending_raises(self):
        node = make_node()
        with pytest.raises(ConfigurationError):
            node.pop_send()

    def test_bad_role_rejected(self):
        with pytest.raises(ConfigurationError):
            make_node(role=Role.BAD)

    def test_decides_only_once(self):
        node = make_node()
        node.on_receive(0, 1, MessageKind.DATA)
        node.on_receive(5, 0, MessageKind.DATA)
        node.on_receive(6, 0, MessageKind.DATA)
        assert node.accepted_value == 1


GRID = GridSpec(width=12, height=12, r=1, torus=True)


def reactive_run(**kwargs):
    defaults = dict(
        grid=GRID,
        protocol="reactive",
        t=1,
        mf=2,
        mmax=10**4,
        placement=RandomPlacement(t=1, count=5, seed=3),
        seed=0,
    )
    defaults.update(kwargs)
    return run(ScenarioSpec(**defaults))


class TestBReactiveIntegration:
    def test_delivers_with_recommended_code(self):
        report = reactive_run()
        assert report.success
        assert report.outcome.quiescent

    def test_deterministic_given_seed(self):
        a = reactive_run(seed=5)
        b = reactive_run(seed=5)
        assert a.outcome == b.outcome

    def test_message_rounds_within_twice_paper_bound(self):
        report = reactive_run()
        bound = 2 * (1 * 2 + 1)
        for node in report.nodes.values():
            assert node.data_sent + node.nacks_sent <= bound

    def test_forced_forgeries_break_cpa(self):
        report = reactive_run(behavior_params={"p_forge": 1.0}, mf=20, seed=1)
        assert report.outcome.wrong_good > 0

    def test_zero_forge_probability_always_safe(self):
        report = reactive_run(behavior_params={"p_forge": 0.0}, mf=5, seed=2)
        assert report.outcome.wrong_good == 0
        assert report.success

    def test_adversary_budget_respected(self):
        report = reactive_run(mf=2)
        for bad in report.table.bad_ids:
            assert report.ledger.sent(bad) <= 2
