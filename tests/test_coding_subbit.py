"""Tests for the sub-bit layer."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.coding.bits import draw_packed, random_bits, unpack_bits
from repro.coding.channel import UnidirectionalChannel
from repro.coding.subbit import SubbitCodec
from repro.errors import CodingError
from repro.experiments.e6_coding import CancellationPoint, _run_cancellation_point
from repro.sim.rng import RngRegistry


def codec(length=6, seed=0):
    return SubbitCodec(block_length=length, rng=random.Random(seed))


def test_zero_bit_is_all_silent():
    assert codec().encode_bit(0) == (0,) * 6


def test_one_bit_is_never_all_silent():
    c = codec()
    for _ in range(200):
        block = c.encode_bit(1)
        assert any(block)
        assert len(block) == 6


def test_invalid_bit_rejected():
    with pytest.raises(CodingError):
        codec().encode_bit(2)


def test_block_length_validation():
    with pytest.raises(CodingError):
        SubbitCodec(block_length=0, rng=random.Random(0))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=32).map(tuple))
def test_encode_decode_roundtrip(bits):
    c = codec(length=5, seed=42)
    assert c.decode(c.encode(bits)) == bits


def test_decode_block_rules():
    c = codec(length=4)
    assert c.decode_block((0, 0, 0, 0)) == 0
    assert c.decode_block((0, 0, 1, 0)) == 1
    with pytest.raises(CodingError):
        c.decode_block((0, 0))


def test_decode_rejects_ragged_signal():
    c = codec(length=4)
    with pytest.raises(CodingError):
        c.decode((0, 0, 0))


def test_blocks_split():
    c = codec(length=3)
    signal = c.encode((1, 0))
    blocks = c.blocks(signal)
    assert len(blocks) == 2
    assert blocks[1] == (0, 0, 0)


def test_deterministic_given_rng():
    a = SubbitCodec(5, random.Random(9)).encode((1, 1, 0))
    b = SubbitCodec(5, random.Random(9)).encode((1, 1, 0))
    assert a == b


# -- packed draws against the per-sub-bit reference ---------------------------
#
# The per-bit loop below is how every block was drawn before blocks were
# packed integers; it stays here as the reference the packed draw must equal.


def _per_bit_block(rng, length, retries=None):
    """One non-silent block, one ``getrandbits(1)`` call per sub-bit."""
    while True:
        block = tuple(rng.getrandbits(1) for _ in range(length))
        if any(block):
            return block
        if retries is not None:
            retries.append(block)


@pytest.mark.parametrize("length", [1, 2, 8, 31, 32, 33, 40])
def test_packed_draw_equals_per_bit_draws(length):
    packed_rng, per_bit_rng = random.Random(length), random.Random(length)
    for _ in range(200):
        packed = draw_packed(length, packed_rng)
        reference = tuple(per_bit_rng.getrandbits(1) for _ in range(length))
        assert unpack_bits(packed, length) == reference
        assert packed == sum(bit << (32 * j + 31) for j, bit in enumerate(reference))
    assert packed_rng.random() == per_bit_rng.random()


@pytest.mark.parametrize("length,seed", [(1, 1), (2, 0), (6, 5), (33, 2)])
def test_encode_bit_matches_per_bit_reference(length, seed):
    c = codec(length=length, seed=seed)
    reference_rng = random.Random(seed)
    retries = []
    for _ in range(64):
        assert c.encode_bit(1) == _per_bit_block(reference_rng, length, retries)
    assert c.rng.random() == reference_rng.random()
    if length <= 2:
        assert retries, "the seed must force at least one silent-block retry"


@pytest.mark.parametrize("length,seed", [(1, 1), (2, 3), (8, 4)])
def test_cancel_attack_matches_per_bit_reference(length, seed):
    channel = UnidirectionalChannel(codec(length=length))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    signal_length = 3 * length
    for block_index in (0, 2, 1) * 10:
        attack = channel.cancel_attack(signal_length, block_index, rng)
        reference = [0] * signal_length
        start = block_index * length
        reference[start : start + length] = _per_bit_block(reference_rng, length)
        assert attack == tuple(reference)
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("k,seed", [(0, 0), (1, 1), (16, 2), (33, 3), (256, 4)])
def test_random_bits_matches_per_bit_reference(k, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert random_bits(k, rng) == tuple(
            reference_rng.getrandbits(1) for _ in range(k)
        )
    assert rng.random() == reference_rng.random()


def _reference_cancellation_successes(length, trials, seed):
    """E6's cancellation trial built from per-bit tuples, as it once was."""
    registry = RngRegistry(seed)
    encode_rng = registry.stream("encode", length)
    attack_rng = registry.stream("attack", length)
    successes = 0
    for _ in range(trials):
        signal = _per_bit_block(encode_rng, length)
        guess = _per_bit_block(attack_rng, length)
        if not any(s ^ g for s, g in zip(signal, guess)):
            successes += 1
    return successes


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_e6_cancellation_point_matches_per_bit_trials(length):
    row = _run_cancellation_point(
        CancellationPoint(block_length=length, trials=2000, seed=9)
    )
    successes = _reference_cancellation_successes(length, 2000, 9)
    assert successes > 0
    assert (row.block_length, row.trials, row.successes) == (length, 2000, successes)
    assert row.measured_rate == successes / 2000
    assert row.analytic_rate == 1 / (2**length - 1)
