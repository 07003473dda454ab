"""Companion for rpr102_neg: a differential test that names the seam.

Placed at tests/test_fixmod.py in the throwaway project; naming the
seam's tier (Tier.FAST) is what RPR102 requires of a live differential
test.
"""


def test_fast_matches_reference():
    import repro.radio.fixmod as fixmod
    from repro.seams import Tier

    assert fixmod.FIXMOD_SEAMS[0].tier is Tier.FAST
    assert fixmod.fast_impl() == fixmod.reference_impl()
