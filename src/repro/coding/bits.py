"""Bit-vector helpers.

Bits are plain tuples of 0/1 integers: small, hashable, and cheap to
slice. They stay the public ``Bits`` type of the coding layer — message
sizes here (key digests) are tens to hundreds of bits, and the chain code
and the link-layer session index, count and slice them bit by bit.

Random bits are the one place packing pays: :func:`draw_packed` takes
``k`` uniform bits from one ``getrandbits`` call as a packed integer, and
:func:`unpack_bits` turns that into ``Bits`` only where a tuple is needed.
The sub-bit layer draws every block this way, and E6's cancellation trials
test packed blocks without building a tuple at all.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, TypeAlias

from repro.errors import CodingError

Bits: TypeAlias = tuple[int, ...]


def as_bits(values: Iterable[int]) -> Bits:
    """Validate and normalize an iterable of 0/1 into a Bits tuple."""
    bits = tuple(values)
    for bit in bits:
        if bit not in (0, 1):
            raise CodingError(f"bit values must be 0 or 1, got {bit!r}")
    return bits


def bits_from_int(value: int, width: int) -> Bits:
    """Big-endian fixed-width bit representation of a non-negative int."""
    if value < 0:
        raise CodingError(f"cannot encode negative value {value}")
    if width < 1:
        raise CodingError(f"width must be >= 1, got {width}")
    if value >= 1 << width:
        raise CodingError(f"value {value} does not fit in {width} bits")
    return tuple((value >> shift) & 1 for shift in range(width - 1, -1, -1))


def bits_to_int(bits: Bits) -> int:
    """Big-endian integer value of a bit tuple."""
    result = 0
    for bit in bits:
        result = (result << 1) | bit
    return result


def popcount(bits: Bits) -> int:
    """Number of 1-bits."""
    return sum(bits)


@lru_cache(maxsize=64)
def _top_bits_mask(k: int) -> int:
    """Bits ``32j + 31`` for ``j < k``: the top bit of each of k words."""
    return int.from_bytes(b"\0\0\0\x80" * k, "little")


def draw_packed(k: int, rng: random.Random) -> int:
    """k uniform bits from one call, packed as bit ``32j + 31`` for draw j.

    Holds exactly the bits of ``k`` successive ``rng.getrandbits(1)`` calls
    and leaves ``rng`` in the same state. CPython's ``getrandbits(n)``
    (``_randommodule.c``) takes one 32-bit Mersenne Twister output per
    32-bit word and places the first output in the least significant word
    on either byte order; a word is only shifted right when ``n`` is not a
    multiple of 32, which ``32 * k`` always is. ``getrandbits(1)`` keeps
    the top bit of one output, ``output >> 31``. So masking the top bit
    of each word of ``getrandbits(32 * k)`` gives the k single-bit draws,
    first draw in the lowest word; ``tests/test_coding_subbit.py`` pins
    this against the per-bit loop. The result is 0 iff every draw is 0.
    """
    return rng.getrandbits(32 * k) & _top_bits_mask(k)


def unpack_bits(packed: int, k: int) -> Bits:
    """The k draws held in a :func:`draw_packed` value, first draw first."""
    # Byte 4j + 3 is the top byte of word j: 0x80 for a 1-draw, else 0.
    return tuple(packed.to_bytes(4 * k, "little")[3::4].replace(b"\x80", b"\x01"))


def random_bits(k: int, rng: random.Random) -> Bits:
    """Uniformly random k-bit message (for tests and benchmarks)."""
    return unpack_bits(draw_packed(k, rng), k)


def flips_are_unidirectional(original: Bits, tampered: Bits) -> bool:
    """True iff ``tampered`` differs from ``original`` only by 0→1 flips.

    This is the only kind of change the sub-bit layer lets an adversary
    make (short of a ``2^-L`` guess), so it is the error model the chain
    code must detect exhaustively.
    """
    if len(original) != len(tampered):
        return False
    return all(o <= t for o, t in zip(original, tampered))
