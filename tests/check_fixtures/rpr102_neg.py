"""RPR102 negative: the differential test exists and names the tier."""

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
        differential_test="tests/test_fixmod.py",
        description="fixture seam",
    ),
)
