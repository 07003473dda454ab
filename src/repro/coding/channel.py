"""Unidirectional adversarial channel model (paper §5).

The adversary owns the airwaves during a victim's transmission: for each
sub-bit slot it may stay silent or transmit. Transmitting during a silent
(``-``) slot injects a ``u``; transmitting the *exact inverse* of the
victim's signal during a ``u`` slot cancels it to ``-``; transmitting
anything else during a ``u`` slot leaves a ``u``.

This collapses to a clean algebra: the adversary chooses a *guess* vector
``g``; the received signal is ``signal XOR g`` restricted to attacked
positions — canceling succeeds exactly where the guess matches a ``u``,
and every wrong guess over a silent slot creates a new ``u``. Hence

- flipping a 0-bit block to 1 always succeeds (inject any ``u``);
- flipping a 1-bit block to 0 requires guessing the entire random block:
  probability ``1 / (2^L - 1)`` ≈ ``2^-L``.

The receiver cannot distinguish a canceled transmission from silence —
no collision detection is assumed anywhere in §5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.coding.bits import Bits, as_bits, unpack_bits
from repro.coding.subbit import SubbitCodec
from repro.errors import CodingError


@dataclass
class UnidirectionalChannel:
    """Single-hop sub-bit channel with an attack interface."""

    codec: SubbitCodec

    # -- physics ---------------------------------------------------------------

    def transmit(self, signal: Bits, attack: Bits | None = None) -> Bits:
        """Deliver a signal, optionally superposing an adversary pattern.

        ``attack`` is the adversary's per-slot transmission (the "guess"
        vector); the received signal is the XOR superposition described in
        the module docstring. ``None`` means no attack.
        """
        signal = as_bits(signal)
        if attack is None:
            return signal
        attack = as_bits(attack)
        if len(attack) != len(signal):
            raise CodingError("attack pattern must cover the whole signal")
        return tuple(s ^ a for s, a in zip(signal, attack))

    # -- canned attacks ---------------------------------------------------------

    def inject_attack(self, signal_length: int, block_index: int) -> Bits:
        """Attack flipping bit ``block_index`` from 0 to 1 (always works).

        Injects a single ``u`` in the first slot of the target block.
        """
        length = self.codec.block_length
        attack = [0] * signal_length
        attack[block_index * length] = 1
        return tuple(attack)

    def cancel_attack(
        self, signal_length: int, block_index: int, rng: random.Random
    ) -> Bits:
        """Attack attempting to flip bit ``block_index`` from 1 to 0.

        The adversary does not know the victim's random block, so it
        guesses a uniformly random non-silent pattern; success probability
        is ``1/(2^L - 1)``.
        """
        length = self.codec.block_length
        attack = [0] * signal_length
        guess = unpack_bits(self.codec.draw_block(rng), length)
        attack[block_index * length : (block_index + 1) * length] = guess
        return tuple(attack)

    def oracle_cancel_attack(self, signal: Bits, block_index: int) -> Bits:
        """Perfect cancellation with knowledge of the signal (for tests).

        Models the measure-zero event of a correct guess; used to verify
        that *even then* the bit-level chain code constrains the adversary
        to unidirectional-looking errors only when it also forges other
        blocks.
        """
        length = self.codec.block_length
        attack = [0] * len(signal)
        block = signal[block_index * length : (block_index + 1) * length]
        attack[block_index * length : (block_index + 1) * length] = list(block)
        return tuple(attack)
