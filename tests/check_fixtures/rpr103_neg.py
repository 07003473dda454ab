"""RPR103 negative: a seam at the vector tier."""

from repro.seams import Seam, Tier


def fast_impl():
    return 1


def reference_impl():
    return 1


FIXMOD_SEAMS = (
    Seam(
        name="fixmod-seam",
        tier=Tier.VECTOR,
        fast="repro.radio.fixmod.fast_impl",
        reference="repro.radio.fixmod.reference_impl",
        differential_test="tests/test_fixmod.py",
        description="fixture seam",
    ),
)
