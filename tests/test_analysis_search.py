"""Tests for the frontier search: budget bisection + axis machinery."""

import pytest

from repro.adversary.placement import StripePlacement, two_stripe_band
from repro.analysis.bounds import m0, max_locally_bounded_t
from repro.analysis.search import (
    FRONTIER_AXES,
    AxisSearch,
    MonotonicityViolation,
    find_min_working_budget,
    frontier_search,
)
from repro.errors import ConfigurationError
from repro.network.grid import Grid, GridSpec
from repro.runner.parallel import ResultCache
from repro.scenario import ScenarioSpec


def make_base(t=2, mf=3):
    grid_spec = GridSpec(width=30, height=30, r=2, torus=True)
    grid = Grid(grid_spec)
    placement, band_rows = two_stripe_band(grid, t=t, band_height=6, below_y0=8)
    band = tuple(grid.id_of((x, y)) for y in band_rows for x in range(30))
    return ScenarioSpec(
        grid=grid_spec,
        t=t,
        mf=mf,
        placement=placement,
        protocol="b",
        behavior="jam",
        protected=band,
        batch_per_slot=8,
    )


def test_finds_the_stripe_frontier():
    # r=2, t=2, mf=3: m=1 fails (E1), m=2=m0 succeeds under the stripe.
    base = make_base()
    result = find_min_working_budget(base, low=1, high=2 * m0(2, 2, 3))
    assert result.min_working_m == 2
    assert result.max_failing_m == 1
    # Bisection on [1, 4] costs at most 4 evaluations.
    assert result.evaluations <= 4


def test_low_already_working_short_circuits():
    base = make_base(t=1, mf=1)  # m0 = 1: even m=1 succeeds
    result = find_min_working_budget(base, low=1, high=2)
    assert result.min_working_m == 1
    assert result.max_failing_m is None
    assert result.evaluations == 2  # top check + low check


def test_failing_top_rejected():
    base = make_base()
    with pytest.raises(ConfigurationError):
        find_min_working_budget(base, low=1, high=1)


def test_invalid_bracket_rejected():
    base = make_base()
    with pytest.raises(ConfigurationError):
        find_min_working_budget(base, low=3, high=2)


class TestBudgetSearchCompat:
    """The budget bisection keeps its historical contract."""

    def test_scenario_spec_base_accepted(self):
        # ``base`` supplies everything but ``m``: its own budget is
        # ignored, so any m on the base yields the same bracket.
        base = make_base()
        high = 2 * m0(2, 2, 3)
        result = find_min_working_budget(base.replace(m=7), low=1, high=high)
        assert result == find_min_working_budget(base, low=1, high=high)

    def test_probes_are_cache_backed(self, tmp_path):
        base = make_base()
        high = 2 * m0(2, 2, 3)
        first_cache = ResultCache(tmp_path, namespace="scenario")
        first = find_min_working_budget(
            base, low=1, high=high, cache=first_cache
        )
        assert first_cache.stats.stores == first.evaluations
        second_cache = ResultCache(tmp_path, namespace="scenario")
        second = find_min_working_budget(
            base, low=1, high=high, cache=second_cache
        )
        assert second == first
        assert second_cache.stats.hits == second.evaluations
        assert second_cache.stats.misses == 0


def quickstart_like_spec(**overrides) -> ScenarioSpec:
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


class FakeOutcome:
    """The attribute subset AxisSearch reads off a ScenarioOutcome."""

    def __init__(self, success):
        self.success = success
        self.decided_good = 100 if success else 10
        self.total_good = 100
        self.rounds = 7


def drive(search: AxisSearch, profile) -> None:
    """Answer a search's probe generations from a value->bool profile."""
    generations = 0
    while not search.done:
        pending = search.pending
        assert pending, "open search must have pending probes"
        search.feed(
            {
                spec.content_hash(): FakeOutcome(profile(spec.m))
                for spec in pending
            }
        )
        generations += 1
        assert generations < 50, "search failed to converge"


class TestAxisSearch:
    def test_monotone_profile_finds_exact_frontier(self):
        search = AxisSearch(quickstart_like_spec(), "m", refine=1)
        drive(search, lambda m: m >= 3)
        result = search.result()
        assert result.frontier == 3
        assert result.last_failing == 2
        assert result.violations == ()
        assert result.note == ""
        probed = {p.value: p.success for p in result.probes}
        assert probed[3] and not probed[2]

    def test_non_monotone_profile_reports_violation(self):
        # Success everywhere above 0 EXCEPT a hole at m=3: the search
        # must surface the (2 succeeded, 3 failed) inversion and report
        # the conservative frontier above every failure, not a bogus
        # smaller one.
        search = AxisSearch(quickstart_like_spec(), "m", refine=2)
        drive(search, lambda m: m >= 1 and m != 3)
        result = search.result()
        assert (
            MonotonicityViolation(axis="m", succeeded_at=2, failed_at=3)
            in result.violations
        )
        assert result.frontier == 4
        assert result.last_failing == 3

    def test_all_failing_axis_reports_no_frontier(self):
        search = AxisSearch(quickstart_like_spec(), "m")
        drive(search, lambda m: False)
        result = search.result()
        assert result.frontier is None
        assert result.violations == ()
        assert "failed" in result.note

    def test_expansion_past_soft_cap(self):
        # Soft cap for this spec is max(2*m0, m)=4; a frontier at 7 is
        # only reachable by doubling the bracket toward the hard cap.
        search = AxisSearch(quickstart_like_spec(), "m")
        drive(search, lambda m: m >= 7)
        result = search.result()
        assert result.frontier == 7
        assert result.last_failing == 6

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown frontier axis"):
            AxisSearch(quickstart_like_spec(), "grid")

    def test_incomplete_generation_rejected(self):
        search = AxisSearch(quickstart_like_spec(), "m")
        with pytest.raises(ConfigurationError, match="incomplete"):
            search.feed({})


class TestFrontierSearchEndToEnd:
    def test_t_axis_retargets_stripe_placement(self):
        spec = quickstart_like_spec()
        axis = FRONTIER_AXES["t"]
        probe = axis.apply(spec, 1)
        assert probe.t == 1
        assert probe.placement.t == 1

    def test_t_axis_bounded_by_local_model(self):
        spec = quickstart_like_spec()
        _dmin, soft, hard = FRONTIER_AXES["t"].bounds(spec)
        assert soft == hard == max_locally_bounded_t(2)

    def test_real_m_frontier_on_the_stripe(self, tmp_path):
        # Same scenario as the compat tests: the adaptive search and the
        # historical bisection must agree on the stripe frontier.
        spec = make_base().replace(m=2 * m0(2, 2, 3))
        cache = ResultCache(tmp_path, namespace="scenario")
        result = frontier_search(spec, "m", cache=cache)
        assert result.frontier == 2
        assert result.last_failing == 1
        assert result.violations == ()
        # An immediate re-run is answered entirely from the cache.
        rerun_cache = ResultCache(tmp_path, namespace="scenario")
        rerun = frontier_search(spec, "m", cache=rerun_cache)
        assert rerun == result
        assert rerun_cache.stats.misses == 0
