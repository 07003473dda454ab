"""RPR101 negative: the implementation is picked per call by a tier."""

from repro.seams import Tier

#: Non-boolean defaults are configuration, not implementation switches.
DEFAULT_LIMIT = 8


def fast_impl():
    return 1


def reference_impl():
    return 1


def compute(*, tier=Tier.VECTOR):
    return reference_impl() if tier is Tier.REFERENCE else fast_impl()
