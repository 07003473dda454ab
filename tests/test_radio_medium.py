"""Tests for per-slot medium resolution (collision semantics)."""

import random

import pytest

import repro.radio.medium as medium_module
from repro.errors import ConfigurationError, ScheduleConflictError
from repro.network.grid import Grid, GridSpec
from repro.radio.medium import Delivery, DeliveryBatch, Medium
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from strategies import MEDIUM_GRID, MEDIUM_SCHEDULE, honest_for_slot


def make_medium(r=1, width=12):
    grid = Grid(GridSpec(width, width, r=r, torus=True))
    return grid, Medium(grid)


def test_single_honest_transmission_reaches_all_neighbors():
    grid, medium = make_medium()
    sender = grid.id_of((5, 5))
    deliveries = medium.resolve_slot([Transmission(sender, 7)], [])
    receivers = {d.receiver for d in deliveries}
    assert receivers == set(grid.neighbors(sender))
    assert all(d.value == 7 and not d.corrupted for d in deliveries)
    assert all(d.sender == sender for d in deliveries)


def test_empty_slot_no_deliveries():
    _, medium = make_medium()
    assert medium.resolve_slot([], []) == []


def test_two_far_honest_transmissions_no_interference():
    grid, medium = make_medium()
    a = grid.id_of((0, 0))
    b = grid.id_of((6, 6))
    deliveries = medium.resolve_slot([Transmission(a, 1), Transmission(b, 2)], [])
    by_sender = {}
    for d in deliveries:
        by_sender.setdefault(d.sender, set()).add(d.receiver)
    assert by_sender[a] == set(grid.neighbors(a))
    assert by_sender[b] == set(grid.neighbors(b))


def test_honest_collision_raises_schedule_conflict():
    grid, medium = make_medium()
    a = grid.id_of((5, 5))
    b = grid.id_of((6, 5))  # adjacent: common neighbors exist
    with pytest.raises(ScheduleConflictError):
        medium.resolve_slot([Transmission(a, 1), Transmission(b, 1)], [])


def test_lone_bad_transmission_is_plain_lie():
    grid, medium = make_medium()
    bad = grid.id_of((3, 3))
    deliveries = medium.resolve_slot([], [BadTransmission(bad, 9)])
    assert {d.receiver for d in deliveries} == set(grid.neighbors(bad))
    assert all(d.value == 9 and not d.corrupted for d in deliveries)


def test_jam_corrupts_common_receivers_only():
    grid, medium = make_medium()
    victim = grid.id_of((5, 5))
    jammer = grid.id_of((7, 5))  # distance 2: shares some receivers
    deliveries = medium.resolve_slot(
        [Transmission(victim, 1)], [BadTransmission(jammer, 0)]
    )
    common = grid.common_neighbors(victim, jammer)
    for d in deliveries:
        if d.receiver in common:
            assert d.corrupted and d.value == 0
        elif d.receiver in grid.neighbors(victim):
            assert not d.corrupted and d.value == 1
        else:  # hears only the jammer: a plain lie
            assert d.value == 0 and not d.corrupted


def test_silence_at_collision_suppresses_delivery():
    grid, medium = make_medium()
    victim = grid.id_of((5, 5))
    jammer = grid.id_of((6, 5))
    deliveries = medium.resolve_slot(
        [Transmission(victim, 1)],
        [BadTransmission(jammer, 0, silence_at_collision=True)],
    )
    common = grid.common_neighbors(victim, jammer)
    receivers = {d.receiver for d in deliveries}
    assert not (receivers & common)  # nothing delivered at collisions
    # Victims-only receivers still get the message.
    assert (set(grid.neighbors(victim)) - common - {jammer}) <= receivers


def test_spoofed_sender_at_collision():
    grid, medium = make_medium()
    victim = grid.id_of((5, 5))
    jammer = grid.id_of((6, 5))
    fake = grid.id_of((0, 0))
    deliveries = medium.resolve_slot(
        [Transmission(victim, 1)],
        [BadTransmission(jammer, 0, spoof_sender=fake)],
    )
    common = grid.common_neighbors(victim, jammer)
    for d in deliveries:
        if d.receiver in common:
            assert d.sender == fake and d.corrupted


def test_two_bad_transmissions_lowest_id_controls():
    grid, medium = make_medium()
    victim = grid.id_of((5, 5))
    j1 = grid.id_of((4, 5))
    j2 = grid.id_of((6, 5))
    lo, hi = min(j1, j2), max(j1, j2)
    deliveries = medium.resolve_slot(
        [Transmission(victim, 1)],
        [BadTransmission(lo, 2), BadTransmission(hi, 3)],
    )
    both = grid.common_neighbors(victim, lo) & grid.common_neighbors(victim, hi)
    assert both  # construction guarantees overlap
    for d in deliveries:
        if d.receiver in both:
            assert d.value == 2  # lowest-id Byzantine transmitter dictates


def test_nack_kind_preserved():
    grid, medium = make_medium()
    sender = grid.id_of((2, 2))
    deliveries = medium.resolve_slot(
        [Transmission(sender, -2, MessageKind.NACK)], []
    )
    assert all(d.kind is MessageKind.NACK for d in deliveries)


def test_deliveries_sorted_deterministically():
    grid, medium = make_medium()
    sender = grid.id_of((5, 5))
    deliveries = medium.resolve_slot([Transmission(sender, 1)], [])
    assert deliveries == sorted(deliveries, key=lambda d: (d.receiver, d.sender))


class TestSpoofSenderHygiene:
    """spoof_sender edge cases: out-of-grid ids and self-spoofs."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_out_of_range_spoof_raises(self, fast):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        medium = Medium(grid, fast=fast)
        victim = grid.id_of((5, 5))
        jammer = grid.id_of((6, 5))
        with pytest.raises(ConfigurationError, match="spoof_sender"):
            medium.resolve_slot(
                [Transmission(victim, 1)],
                [BadTransmission(jammer, 0, spoof_sender=grid.n + 7)],
            )

    @pytest.mark.parametrize("fast", [True, False])
    def test_negative_spoof_raises(self, fast):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        medium = Medium(grid, fast=fast)
        victim = grid.id_of((5, 5))
        jammer = grid.id_of((6, 5))
        with pytest.raises(ConfigurationError, match="spoof_sender"):
            medium.resolve_slot(
                [Transmission(victim, 1)],
                [BadTransmission(jammer, 0, spoof_sender=-1)],
            )

    @pytest.mark.parametrize("fast", [True, False])
    def test_self_spoof_clamps_to_controller(self, fast):
        # A receiver cannot appear to hear itself: spoofing the
        # receiver's own id falls back to the jammer's real id at that
        # receiver, while other collision victims still see the spoof.
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        medium = Medium(grid, fast=fast)
        victim = grid.id_of((5, 5))
        jammer = grid.id_of((6, 5))
        spoofed = grid.id_of((6, 6))  # a common neighbor: hears the collision
        assert spoofed in grid.common_neighbors(victim, jammer)
        deliveries = medium.resolve_slot(
            [Transmission(victim, 1)],
            [BadTransmission(jammer, 0, spoof_sender=spoofed)],
        )
        by_receiver = {d.receiver: d for d in deliveries}
        self_heard = by_receiver[spoofed]
        assert self_heard.corrupted
        assert self_heard.sender == jammer  # clamped, not the receiver itself
        other = next(
            d
            for d in deliveries
            if d.corrupted and d.receiver != spoofed
        )
        assert other.sender == spoofed  # spoof still applies elsewhere

    def test_lone_bad_transmission_ignores_spoof(self):
        # spoof_sender only acts at collisions; a lone Byzantine message
        # is a plain lie from its true sender on both paths.
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        bad = grid.id_of((3, 3))
        tx = [BadTransmission(bad, 9, spoof_sender=grid.id_of((0, 0)))]
        for fast in (True, False):
            deliveries = Medium(grid, fast=fast).resolve_slot([], tx)
            assert all(d.sender == bad and not d.corrupted for d in deliveries)


class TestFastPathEquivalence:
    """The flat-buffer fast path is byte-for-byte the reference path."""

    def test_randomized_slots_match_reference(self):
        grid = Grid(GridSpec(20, 20, r=2, torus=True))
        fast = Medium(grid, fast=True)
        reference = Medium(grid, fast=False)
        rng = random.Random(42)
        kinds = [MessageKind.DATA, MessageKind.NACK]
        for _ in range(500):
            honest = (
                [Transmission(rng.randrange(grid.n), rng.randint(0, 3),
                              rng.choice(kinds))]
                if rng.random() < 0.7
                else []
            )
            byzantine = [
                BadTransmission(
                    rng.randrange(grid.n),
                    rng.randint(0, 3),
                    silence_at_collision=rng.random() < 0.3,
                    kind=rng.choice(kinds),
                    spoof_sender=(
                        rng.randrange(grid.n) if rng.random() < 0.5 else None
                    ),
                )
                for _ in range(rng.randint(0, 4))
            ]
            assert fast.resolve_slot(honest, byzantine) == (
                reference.resolve_slot(honest, byzantine)
            )

    def test_reference_twin_and_seam_registration(self):
        # The seam contract: Medium(fast=...) selects between
        # resolve_slot's fast body and resolve_slot_reference, the pair is
        # listed in repro.seams.SEAMS at Tier.FAST, and calling the
        # reference twin directly matches the fast resolver on identical
        # input.
        from repro.seams import SEAMS, Tier

        seam = next(seam for seam in SEAMS if seam.name == "slot-resolver")
        assert seam.tier is Tier.FAST
        assert seam.reference.endswith("Medium.resolve_slot_reference")
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        assert Medium(grid).fast  # fast path is the shipped default
        assert not Medium(grid, fast=False).fast
        medium = Medium(grid, fast=True)
        honest = [Transmission(grid.id_of((5, 5)), 1)]
        byzantine = [BadTransmission(grid.id_of((6, 6)), 0)]
        assert medium.resolve_slot(
            honest, byzantine
        ) == medium.resolve_slot_reference(honest, byzantine)

    def test_memo_hits_return_identity_stable_batches(self):
        # Since the scenario fast path, memo hits hand out the *same*
        # cached batch object (callers must treat it as immutable): the
        # stable identity is what keys per-batch distribution plans in
        # the flat engines and the round driver.
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        medium = Medium(grid)
        honest = [Transmission(grid.id_of((5, 5)), 1)]
        first = medium.resolve_slot(honest, [])
        second = medium.resolve_slot(honest, [])
        assert first == second
        assert first is second
        assert isinstance(first, list)  # still a plain list to consumers
        assert first.corrupted_count == 0

    def test_honest_collision_raises_on_both_paths(self):
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        a, b = grid.id_of((5, 5)), grid.id_of((6, 5))
        txs = [Transmission(a, 1), Transmission(b, 1)]
        for fast in (True, False):
            with pytest.raises(ScheduleConflictError, match="collided"):
                Medium(grid, fast=fast).resolve_slot(txs, [])

    def test_buffers_recover_after_schedule_conflict(self):
        # The conflict path must leave the scratch buffers clean so the
        # medium keeps resolving correctly afterwards.
        grid = Grid(GridSpec(12, 12, r=1, torus=True))
        medium = Medium(grid)
        a, b = grid.id_of((5, 5)), grid.id_of((6, 5))
        with pytest.raises(ScheduleConflictError):
            medium.resolve_slot([Transmission(a, 1), Transmission(b, 1)], [])
        deliveries = medium.resolve_slot(
            [Transmission(a, 1)], [BadTransmission(b, 0)]
        )
        reference = Medium(grid, fast=False).resolve_slot(
            [Transmission(a, 1)], [BadTransmission(b, 0)]
        )
        assert deliveries == reference

    def test_multi_honest_streams_match_reference(self, monkeypatch):
        # The driver's common miss: several honest owners of one TDMA
        # class plus a few Byzantine transmissions, resolved on one
        # long-lived medium so delivery rows are reused across slots.
        # A tiny row bound forces the row cache to drop mid-stream.
        monkeypatch.setattr(medium_module, "_ROW_DELIVERY_LIMIT", 200)
        grid = MEDIUM_GRID
        fast = Medium(grid)
        reference = Medium(grid, fast=False)
        rng = random.Random(7)
        kinds = [MessageKind.DATA, MessageKind.NACK]
        drops = multi_honest = 0
        for _ in range(600):
            slot = rng.randrange(MEDIUM_SCHEDULE.period)
            honest = [
                Transmission(tx.sender, rng.randint(0, 1), rng.choice(kinds))
                for tx in honest_for_slot(slot, rng.randint(0, 6))
            ]
            honest_ids = {tx.sender for tx in honest}
            byzantine: list[BadTransmission] = []
            for _ in range(rng.randint(0, 4)):
                if byzantine and rng.random() < 0.3:
                    # Adjacent Byzantine senders (half-duplex masking).
                    sender = rng.choice(grid.neighbors(byzantine[-1].sender))
                else:
                    sender = rng.randrange(grid.n)
                if sender in honest_ids:
                    continue
                roll = rng.random()
                if roll < 0.3:
                    spoof = rng.randrange(grid.n)
                elif roll < 0.5:
                    # A neighbor of the jammer: the self-spoof clamp.
                    spoof = rng.choice(grid.neighbors(sender))
                else:
                    spoof = None
                byzantine.append(
                    BadTransmission(
                        sender,
                        rng.randint(0, 1),
                        silence_at_collision=rng.random() < 0.3,
                        kind=rng.choice(kinds),
                        spoof_sender=spoof,
                    )
                )
            held = fast._row_deliveries
            assert fast.resolve_slot(honest, byzantine) == (
                reference.resolve_slot(honest, byzantine)
            )
            drops += fast._row_deliveries < held
            multi_honest += len(honest) > 1
        assert drops > 0
        assert multi_honest > 200


class TestSharedDeliveries:
    """Uncollided deliveries are shared row objects; batches are not."""

    def test_repeated_transmission_shares_delivery_objects(self):
        grid, medium = make_medium()
        sender = grid.id_of((5, 5))
        tx = Transmission(sender, 1)
        jammed = medium.resolve_slot([tx], [BadTransmission(grid.id_of((7, 5)), 0)])
        other = grid.id_of((0, 9))  # far away: no common receiver
        paired = medium.resolve_slot([tx, Transmission(other, 2)], [])
        assert jammed is not paired
        first = {d.receiver: d for d in jammed if d.sender == sender}
        second = {d.receiver: d for d in paired if d.sender == sender}
        uncollided = [r for r in first if not first[r].corrupted]
        assert uncollided
        for receiver in uncollided:
            assert first[receiver] is second[receiver]

    def test_lone_batch_is_fresh_over_the_row(self):
        grid, medium = make_medium()
        tx = Transmission(grid.id_of((5, 5)), 1)
        first = medium.resolve_slot([tx], [])
        medium._slot_memo.clear()
        second = medium.resolve_slot([tx], [])
        assert type(first) is DeliveryBatch and type(second) is DeliveryBatch
        assert first.corrupted_count == 0 and second.corrupted_count == 0
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        # The batch is a list over the row, never the cached row tuple.
        assert not any(first is row for row in medium._rows.values())

    def test_delivery_is_an_immutable_record(self):
        delivery = Delivery(3, 4, 1, MessageKind.NACK, corrupted=True)
        with pytest.raises(AttributeError):
            delivery.receiver = 5
        assert hash(delivery) == hash(Delivery(3, 4, 1, MessageKind.NACK, True))
        assert delivery == Delivery(3, 4, 1, MessageKind.NACK, True)
        assert Delivery(3, 4, 1, MessageKind.DATA).corrupted is False
        assert repr(delivery) == (
            "Delivery(receiver=3, sender=4, value=1, "
            "kind=<MessageKind.NACK: 'nack'>, corrupted=True)"
        )

    def test_scratch_idle_after_conflict_mid_row(self):
        # Two adjacent honest senders collide after lower receivers were
        # already emitted from their rows, and a Byzantine sender marks
        # controllers elsewhere: every scratch buffer must come back idle.
        grid, medium = make_medium()
        n = grid.n
        honest = [
            Transmission(grid.id_of((5, 5)), 1),
            Transmission(grid.id_of((6, 5)), 1),
        ]
        byzantine = [BadTransmission(grid.id_of((1, 1)), 0)]
        with pytest.raises(ScheduleConflictError):
            medium.resolve_slot(honest, byzantine)
        assert medium._heard == bytearray(n)
        assert medium._transmitting == bytearray(n)
        assert medium._ctrl_sender == [n] * n
        assert medium._touched == []
