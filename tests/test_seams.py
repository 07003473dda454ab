"""Tests for :mod:`repro.seams` — the seam table and the execution tier."""

import importlib
import inspect

import pytest

import repro.fuzz.runner as fuzz_runner
from repro.errors import ConfigurationError
from repro.protocols import vectorized
from repro.scenario import run
from repro.seams import SEAMS, Seam, Tier
from strategies import equivalence_spec

#: Every seam the tree ships: the four historical fast paths plus the
#: warm-world cache and the numpy neighbor-table build.
EXPECTED_SEAMS = {
    "flat-engines",
    "grid-build",
    "round-driver",
    "slot-resolver",
    "vector-kernel",
    "warm-world",
}


def make_seam(**overrides):
    fields = dict(
        name="test-seam",
        tier=Tier.FAST,
        fast="repro.radio.medium.Medium.resolve_slot",
        reference="repro.radio.medium.Medium.resolve_slot_reference",
        differential_test="tests/test_radio_medium.py",
    )
    fields.update(overrides)
    return Seam(**fields)


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class TestRegistry:
    def test_all_sites_register(self):
        assert {seam.name for seam in SEAMS} == EXPECTED_SEAMS

    def test_all_seams_name_sorted(self):
        names = [seam.name for seam in SEAMS]
        assert names == sorted(names)

    def test_duplicate_name_rejected(self):
        # SEAMS is a literal table, so this test is what rejects a second
        # seam under an existing name.
        names = [seam.name for seam in SEAMS]
        assert len(set(names)) == len(names)

    def test_flags_resolve_and_default_on(self):
        # Every seam's dotted paths name real objects, and a plain
        # run(spec) takes every fast path.
        for seam in SEAMS:
            assert callable(resolve(seam.fast)), seam.fast
            assert callable(resolve(seam.reference)), seam.reference
        default = inspect.signature(run).parameters["tier"].default
        assert default is Tier.VECTOR


class TestSeamValidation:
    @pytest.mark.parametrize(
        "field", ["name", "fast", "reference", "differential_test"]
    )
    def test_empty_field_rejected(self, field):
        with pytest.raises(ConfigurationError, match="non-empty"):
            make_seam(**{field: ""})

    def test_unknown_fuzz_leg_rejected(self):
        # The tier decides which fuzz leg runs the seam's fast side.
        with pytest.raises(ConfigurationError, match="Tier.FAST or Tier.VECTOR"):
            make_seam(tier="diagonal")


class TestFuzzFlags:
    def test_covers_every_registered_seam(self, monkeypatch):
        # One fuzz case runs every tier a seam sits at, plus the
        # reference tier that runs all the twins.
        tiers = []
        real_run = fuzz_runner.run_scenario

        def recording_run(spec, *, tier):
            tiers.append(tier)
            return real_run(spec, tier=tier)

        monkeypatch.setattr(fuzz_runner, "run_scenario", recording_run)
        assert fuzz_runner.check_spec(equivalence_spec()) == []
        expected = {Tier.REFERENCE} | {seam.tier for seam in SEAMS}
        if not vectorized.available():
            expected.discard(Tier.VECTOR)
        assert set(tiers) == expected

    def test_legless_seam_fails_loudly(self):
        # A seam whose fast side sits at the reference tier would never
        # meet its twin in a differential run; it must not construct.
        with pytest.raises(ConfigurationError, match="Tier.REFERENCE run"):
            make_seam(tier=Tier.REFERENCE)

    def test_vector_leg_present(self):
        vector = {seam.name for seam in SEAMS if seam.tier is Tier.VECTOR}
        assert vector == {"vector-kernel"}
