"""Faithful sub-bit simulation of one reactive local broadcast (§5).

This is the bridge between the coding substrate and the network-scale
B_reactive runs: a single sender's reliable local broadcast is simulated
at *sub-bit* granularity on the discrete-event engine — every data
message and every NACK is a real ``K * L``-slot signal pushed through
the :class:`~repro.coding.channel.UnidirectionalChannel`, with a
budgeted attacker injecting/cancelling sub-bits.

Experiment E13 uses it to validate the message-level abstraction that
the network simulation relies on (DESIGN.md, "§5 layering"): per attack,
tampering is detected with probability ``1 - 1/(2^L - 1)`` and the
sender needs exactly one more transmission, so a session under ``a``
attacks costs ``a + 1`` data rounds.

Timeline (virtual time = sub-bit slots):

- the sender transmits the coded message (``K * L`` slots);
- each receiver verifies; on failure it queues a NACK — NACKs go out in
  consecutive message rounds (one transmission at a time, as a TDMA
  schedule would serialize them), and the attacker may attack NACKs too;
- any (even corrupted) NACK heard makes the sender retransmit;
- the sender stops after ``quiet_window`` NACK-free message rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.coding.bits import Bits
from repro.coding.chain import ChainCode
from repro.coding.channel import UnidirectionalChannel
from repro.coding.params import quiet_window as default_quiet_window
from repro.coding.subbit import SubbitCodec
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.process import Process, Timeout


@dataclass
class LinkAttacker:
    """Budgeted sub-bit attacker for one link session.

    Strategy per attacked transmission: pick one block of the signal —
    a 1-block for a cancellation attempt (guessing the random pattern)
    or, with probability ``inject_fraction``, a 0-block for an injection
    (always flips, always detectable by the chain code).
    """

    channel: UnidirectionalChannel
    rng: random.Random
    budget: int
    inject_fraction: float = 0.5
    attack_nacks: bool = True
    attacks: int = 0
    cancellations_attempted: int = 0
    cancellations_succeeded: int = 0

    def maybe_attack(self, signal: Bits, word: Bits, is_nack: bool) -> Bits:
        """Return the (possibly attacked) signal; spends budget."""
        if self.budget <= 0 or (is_nack and not self.attack_nacks):
            return signal
        self.budget -= 1
        self.attacks += 1
        one_blocks = [i for i, bit in enumerate(word) if bit == 1]
        zero_blocks = [i for i, bit in enumerate(word) if bit == 0]
        do_inject = zero_blocks and (
            not one_blocks or self.rng.random() < self.inject_fraction
        )
        if do_inject:
            attack = self.channel.inject_attack(
                len(signal), self.rng.choice(zero_blocks)
            )
        else:
            self.cancellations_attempted += 1
            block = self.rng.choice(one_blocks)
            attack = self.channel.cancel_attack(len(signal), block, self.rng)
        received = self.channel.transmit(signal, attack)
        if not do_inject:
            codec = self.channel.codec
            length = codec.block_length
            block_signal = received[block * length : (block + 1) * length]
            if codec.decode_block(tuple(block_signal)) == 0:
                self.cancellations_succeeded += 1
        return received


@dataclass
class LinkOutcome:
    """Result of one sub-bit link session."""

    receivers: int
    delivered: int
    data_rounds: int = 0
    nack_rounds: int = 0
    attacks: int = 0
    undetected_forgeries: int = 0
    duration_slots: float = 0.0

    @property
    def all_delivered(self) -> bool:
        return self.delivered == self.receivers


class CodedLinkSession:
    """One sender, ``n_receivers`` listeners, one attacker, on the DES."""

    def __init__(
        self,
        *,
        message: Bits,
        chain: ChainCode,
        codec: SubbitCodec,
        attacker: LinkAttacker,
        n_receivers: int,
        quiet_window: int | None = None,
        max_rounds: int = 1000,
    ) -> None:
        if n_receivers < 1:
            raise ConfigurationError("a link session needs at least one receiver")
        self.message = message
        self.chain = chain
        self.codec = codec
        self.attacker = attacker
        self.n_receivers = n_receivers
        self.quiet_window = (
            default_quiet_window(1) if quiet_window is None else quiet_window
        )
        self.max_rounds = max_rounds
        self.sim = Simulator()
        self.word = chain.encode(message)
        self.nack_word = chain.encode((1,) * chain.k)  # protocol constant
        self.round_slots = len(self.word) * codec.block_length
        self._received_ok = [False] * n_receivers
        self._pending_nacks = 0
        self._nack_heard = False
        self._forgeries = 0
        self.outcome = LinkOutcome(receivers=n_receivers, delivered=0)

    # -- one message round ---------------------------------------------------

    def _transmit_data(self) -> None:
        """One data message round: encode, attack, deliver to receivers."""
        self.outcome.data_rounds += 1
        signal = self.codec.encode(self.word)
        attacks_before = self.attacker.attacks
        received = self.attacker.maybe_attack(signal, self.word, is_nack=False)
        attacked = self.attacker.attacks > attacks_before
        bits = self.codec.decode(received)
        if self.chain.verify(bits):
            decoded = self.chain.decode(bits)
            if decoded != self.message:
                self._forgeries += 1  # undetected tampering (the 2^-L event)
            for index in range(self.n_receivers):
                self._received_ok[index] = True
        else:
            # Every receiver detects the corruption; one NACK each.
            self._pending_nacks = self.n_receivers
        del attacked  # bookkeeping only via attacker counters

    def _transmit_nack(self) -> None:
        """One NACK message round (NACKs are coded messages too)."""
        self.outcome.nack_rounds += 1
        signal = self.codec.encode(self.nack_word)
        received = self.attacker.maybe_attack(signal, self.nack_word, is_nack=True)
        bits = self.codec.decode(received)
        # Either a well-formed NACK or detected garbage: both indicate
        # failure to the sender. Only a full cancellation (all-silent
        # signal) would hide it — probability ~2^-(K*L), ignored.
        if any(bits) or not self.chain.verify(bits):
            self._nack_heard = True

    # -- the session process ---------------------------------------------------

    def _sender(self):
        data_rounds = 0
        while data_rounds < self.max_rounds:
            self._transmit_data()
            data_rounds += 1
            yield Timeout(self.round_slots)

            # NACK phase: every receiver that detected corruption voices a
            # NACK; the TDMA period serializes them into consecutive
            # message rounds. The attacker may attack each NACK, but a
            # garbled NACK still signals failure.
            nacks, self._pending_nacks = self._pending_nacks, 0
            for _ in range(nacks):
                self._transmit_nack()
                yield Timeout(self.round_slots)

            if self._nack_heard:
                self._nack_heard = False
                continue  # failure indicated: retransmit the data

            # Quiet window: no failure indications; wait it out and stop.
            for _ in range(self.quiet_window):
                yield Timeout(self.round_slots)
            return

    def run(self) -> LinkOutcome:
        Process(self.sim, self._sender(), name="sender")
        self.sim.run()
        self.outcome.delivered = sum(self._received_ok)
        self.outcome.attacks = self.attacker.attacks
        self.outcome.undetected_forgeries = self._forgeries
        self.outcome.duration_slots = self.sim.now
        return self.outcome


def run_link_session(
    *,
    k: int = 16,
    block_length: int = 8,
    n_receivers: int = 8,
    attacker_budget: int = 3,
    seed: int = 0,
    quiet_window: int | None = None,
    inject_fraction: float = 0.5,
    attack_nacks: bool = True,
) -> LinkOutcome:
    """Convenience wrapper building and running one session."""
    rng = random.Random(seed)
    chain = ChainCode(k)
    codec = SubbitCodec(block_length=block_length, rng=random.Random(seed + 1))
    attacker = LinkAttacker(
        channel=UnidirectionalChannel(codec),
        rng=rng,
        budget=attacker_budget,
        inject_fraction=inject_fraction,
        attack_nacks=attack_nacks,
    )
    session = CodedLinkSession(
        message=tuple(random.Random(seed + 2).getrandbits(1) for _ in range(k)),
        chain=chain,
        codec=codec,
        attacker=attacker,
        n_receivers=n_receivers,
        quiet_window=quiet_window,
    )
    return session.run()
