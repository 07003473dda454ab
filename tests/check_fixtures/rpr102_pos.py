"""RPR102 positive: the declared differential test does not exist."""

from repro.seams import Seam, Tier


def fast_impl():
    return 1


def reference_impl():
    return 1


FIXMOD_SEAMS = (
    Seam(
        name="fixmod-seam",
        tier=Tier.FAST,
        fast="repro.radio.fixmod.fast_impl",
        reference="repro.radio.fixmod.reference_impl",
        differential_test="tests/test_missing.py",
        description="fixture seam",
    ),
)
