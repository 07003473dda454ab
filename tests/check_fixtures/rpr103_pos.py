"""RPR103 positive: a seam whose fast side sits at the reference tier."""

from repro.seams import Seam, Tier


def fast_impl():
    return 1


def reference_impl():
    return 1


FIXMOD_SEAMS = (
    Seam(
        name="fixmod-seam",
        tier=Tier.REFERENCE,
        fast="repro.radio.fixmod.fast_impl",
        reference="repro.radio.fixmod.reference_impl",
        differential_test="tests/test_fixmod.py",
        description="fixture seam",
    ),
)
