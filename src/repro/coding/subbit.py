"""Sub-bit layer (paper §5, Figure 9 bottom).

Each bit is transmitted as ``L`` sub-bits; a sub-bit is the presence
(``u``, here ``1``) or absence (``-``, here ``0``) of a signal during one
time slot. Encoding:

- bit 0 → all-silent block ``000...0``;
- bit 1 → a uniformly random **non-silent** block.

Decoding: a block containing at least one ``u`` is a 1, otherwise a 0.

The non-silent constraint is a documented refinement: a literal uniform
draw would produce the all-silent block with probability ``2^-L`` and be
mis-decoded as 0 even without an adversary; the paper's decoding rule
presumes at least one ``u`` in a 1-block.

The recommended block length is ``L = 2 log2 n + log2 t + log2 mmax``
(:func:`repro.coding.params.subbit_length`), making the per-bit forgery
probability ``2^-L = 1 / (n^2 t mmax)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.coding.bits import Bits, as_bits, draw_packed, unpack_bits
from repro.errors import CodingError


@dataclass
class SubbitCodec:
    """Encoder/decoder for the sub-bit layer.

    Args:
        block_length: sub-bits per bit (``L``).
        rng: random stream for the 1-blocks; supply a seeded stream from
            :class:`~repro.sim.rng.RngRegistry` for reproducible runs.
    """

    block_length: int
    rng: random.Random

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise CodingError(f"block length must be >= 1, got {self.block_length}")

    # -- encoding -------------------------------------------------------------

    def draw_block(self, rng: random.Random) -> int:
        """A uniformly random non-silent block, packed (see ``draw_packed``).

        Sub-bit ``j`` is bit ``32j + 31``; a silent draw is redrawn. XOR of
        two packed blocks is the superposition of
        :class:`~repro.coding.channel.UnidirectionalChannel`, and a packed
        block decodes to 0 iff it is 0.
        """
        while True:
            block = draw_packed(self.block_length, rng)
            if block:
                return block

    def encode_bit(self, bit: int) -> Bits:
        """One bit to one sub-bit block."""
        if bit == 0:
            return (0,) * self.block_length
        if bit != 1:
            raise CodingError(f"bit must be 0 or 1, got {bit!r}")
        return unpack_bits(self.draw_block(self.rng), self.block_length)

    def encode(self, bits: Bits) -> Bits:
        """A bit string to its flat sub-bit signal."""
        signal: list[int] = []
        for bit in as_bits(bits):
            signal.extend(self.encode_bit(bit))
        return tuple(signal)

    # -- decoding -------------------------------------------------------------

    def decode_block(self, block: Bits) -> int:
        if len(block) != self.block_length:
            raise CodingError(
                f"block length {len(block)} != configured {self.block_length}"
            )
        return 1 if any(block) else 0

    def decode(self, signal: Bits) -> Bits:
        """A flat sub-bit signal back to bits."""
        if len(signal) % self.block_length:
            raise CodingError(
                f"signal length {len(signal)} is not a multiple of "
                f"L={self.block_length}"
            )
        return tuple(
            self.decode_block(tuple(signal[i : i + self.block_length]))
            for i in range(0, len(signal), self.block_length)
        )

    def blocks(self, signal: Bits) -> list[Bits]:
        """Split a signal into its per-bit blocks."""
        if len(signal) % self.block_length:
            raise CodingError("signal length is not a multiple of L")
        return [
            tuple(signal[i : i + self.block_length])
            for i in range(0, len(signal), self.block_length)
        ]
