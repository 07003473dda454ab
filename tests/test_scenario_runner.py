"""Tests for the unified scenario runner and the component registries."""

import pytest

from repro.adversary.base import NullAdversary
from repro.adversary.placement import RandomPlacement, StripePlacement
from repro.errors import ConfigurationError
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache, sweep
from repro.scenario import (
    ScenarioSpec,
    behaviors,
    preset,
    protocols,
    run,
    run_summary,
)


def _threshold_spec(**overrides) -> ScenarioSpec:
    base = dict(
        grid=GridSpec(width=30, height=30, r=2, torus=True),
        t=2,
        mf=3,
        placement=StripePlacement(y0=8, t=2),
        protocol="b",
        m=4,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRegistries:
    def test_builtin_protocols_registered(self):
        assert set(protocols.names()) >= {"b", "koo", "heter", "cpa", "reactive"}

    def test_builtin_behaviors_registered(self):
        assert set(behaviors.names()) >= {
            "jam", "lie", "spoof", "none", "coded", "figure2-defense",
        }

    def test_unknown_behavior_error_lists_registered_names(self):
        # The historical failure mode was a bare `unknown behavior 'x'`
        # repr; the registry must name what *is* available.
        with pytest.raises(ConfigurationError) as excinfo:
            run(_threshold_spec(behavior="shout"))
        message = str(excinfo.value)
        assert "shout" in message
        for name in ("jam", "lie", "none", "spoof"):
            assert name in message

    def test_unknown_protocol_error_lists_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run(_threshold_spec(protocol="gossip"))
        message = str(excinfo.value)
        assert "gossip" in message and "reactive" in message and "koo" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            protocols.register("b", protocols.get("b"))


class TestBehaviorResolution:
    def test_protocol_default_behavior_used_when_unset(self):
        explicit = run(_threshold_spec(behavior="jam"))
        default = run(_threshold_spec())
        assert default.outcome == explicit.outcome
        assert default.costs == explicit.costs

    def test_none_behavior_runs_null_adversary(self):
        report = run(_threshold_spec(behavior="none", m=2))
        assert isinstance(report.adversary, NullAdversary)
        assert report.success

    def test_adversary_override_takes_precedence(self):
        sentinel = NullAdversary()
        report = run(
            _threshold_spec(behavior="jam", m=2),
            adversary_override=lambda grid, table, ledger: sentinel,
        )
        assert report.adversary is sentinel

    def test_coded_behavior_requires_mmax_or_p_forge(self):
        spec = ScenarioSpec(
            grid=GridSpec(width=12, height=12, r=1, torus=True),
            t=1,
            mf=2,
            placement=RandomPlacement(t=1, count=4, seed=3),
            protocol="reactive",
        )
        with pytest.raises(ConfigurationError, match="mmax"):
            run(spec)
        assert run(spec.replace(mmax=10**6)).success


class TestScenarioSweep:
    def test_specs_sweep_with_cache_and_workers(self, tmp_path):
        specs = [preset("quickstart"), preset("reactive")]
        cache = ResultCache(tmp_path, namespace="scenario")
        first = sweep(specs, run_summary, workers=2, cache=cache)
        assert cache.stats.stores == len(specs)
        warm = ResultCache(tmp_path, namespace="scenario")
        second = sweep(specs, run_summary, workers=1, cache=warm)
        assert warm.stats.hits == len(specs)
        assert warm.stats.stores == 0
        assert first == second
        assert all(outcome.success for outcome in first.results)

    def test_seed_is_scenario_content(self):
        # A different seed is a different cache identity, even when the
        # outcome happens to coincide (the adversary may be budget-bound).
        base = preset("reactive")
        assert base.content_hash() != base.replace(seed=1).content_hash()
        # Same seed, same everything: summaries are reproducible values.
        assert run_summary(base) == run_summary(preset("reactive"))


class TestPresets:
    def test_quickstart_succeeds_and_impossibility_fails(self):
        assert run(preset("quickstart")).success
        assert run(preset("theorem2")).success
        assert not run(preset("stripe-impossibility")).success

    @pytest.mark.slow
    def test_figure2_preset_reproduces_the_paper_failure(self):
        report = run(preset("figure2"))
        assert not report.success
        assert report.outcome.decided_good + 1 == 84  # square + mid-sides

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigurationError, match="quickstart"):
            preset("warp-speed")
