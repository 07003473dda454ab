"""Integration tests: full broadcasts for every protocol and adversary mix."""

import pytest

from repro.adversary.placement import RandomPlacement, StripePlacement, two_stripe_band
from repro.analysis.bounds import m0, protocol_b_relay_count
from repro.network.grid import Grid, GridSpec
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_spec

GRID = GridSpec(width=18, height=18, r=1, torus=True)


def run(protocol="b", behavior="jam", t=1, mf=2, m=None, grid=GRID,
        placement=None, protected=None):
    spec = ScenarioSpec(
        grid=grid,
        t=t,
        mf=mf,
        placement=placement or RandomPlacement(t=t, count=8, seed=2),
        protocol=protocol,
        behavior=behavior,
        m=m,
        protected=protected,
        batch_per_slot=4,
    )
    return run_spec(spec)


class TestProtocolB:
    def test_succeeds_at_2m0_under_jamming(self):
        report = run(protocol="b", behavior="jam")
        assert report.success
        assert report.outcome.quiescent

    def test_succeeds_against_liar(self):
        report = run(protocol="b", behavior="lie")
        assert report.success

    def test_succeeds_with_no_adversary(self):
        report = run(protocol="b", behavior="none")
        assert report.success

    def test_no_wrong_acceptance_ever(self):
        # Lemma 1 (correctness): across all behaviors, no good node accepts
        # a wrong value even when the broadcast is starved.
        for behavior in ("jam", "lie", "none"):
            report = run(protocol="b", behavior=behavior, m=1)
            assert report.outcome.wrong_good == 0

    def test_budget_never_exceeded(self):
        report = run(protocol="b", behavior="jam")
        for nid in report.table.good_ids:
            budget = report.ledger.budget_of(nid)
            if budget is not None:
                assert report.ledger.sent(nid) <= budget
        for bad in report.table.bad_ids:
            assert report.ledger.sent(bad) <= 2  # mf

    def test_relay_cost_bounded_by_m_prime(self):
        report = run(protocol="b", behavior="jam")
        m_prime = protocol_b_relay_count(1, 1, 2)
        assert report.costs.good_max <= m_prime

    def test_stripe_band_starved_below_m0(self):
        spec = GridSpec(width=30, height=30, r=2, torus=True)
        grid = Grid(spec)
        placement, band_rows = two_stripe_band(grid, t=2, band_height=6, below_y0=8)
        band = [grid.id_of((x, y)) for y in band_rows for x in range(30)]
        lower = m0(2, 2, 3)
        report = run(
            protocol="b",
            t=2,
            mf=3,
            m=lower - 1,
            grid=spec,
            placement=placement,
            protected=band,
        )
        assert not report.success
        assert all(
            not report.nodes[nid].decided for nid in band if nid in report.nodes
        )

    def test_same_seed_same_outcome(self):
        a = run(protocol="b", behavior="jam")
        b = run(protocol="b", behavior="jam")
        assert a.outcome == b.outcome
        assert a.costs == b.costs


class TestKooBaseline:
    def test_succeeds_and_costs_more(self):
        koo = run(protocol="koo", behavior="jam")
        b = run(protocol="b", behavior="jam")
        assert koo.success and b.success
        assert koo.costs.good_max >= b.costs.good_max


class TestHeterogeneous:
    def test_succeeds_with_cross_assignment(self):
        report = run(protocol="heter", behavior="jam")
        assert report.success
        assert report.assignment is not None
        assert report.assignment.average < 2 * m0(1, 1, 2) or m0(1, 1, 2) == 1

    def test_privileged_nodes_on_axes(self):
        report = run(protocol="heter", behavior="none")
        grid = report.grid
        for nid in report.assignment.privileged:
            x, y = grid.coord_of(nid)
            assert min(x, grid.width - x) <= grid.r or min(y, grid.height - y) <= grid.r


class TestCpa:
    def test_succeeds_without_collisions(self):
        report = run(protocol="cpa", behavior="lie")
        assert report.success

    def test_spoofing_defeats_plain_cpa(self):
        # The anti-CPA attack: jams manufacture fake endorsements. This is
        # the §5 motivation — without the integrity code, certified
        # propagation accepts wrong values.
        report = run(protocol="cpa", behavior="spoof", mf=30)
        assert report.outcome.wrong_good > 0

    def test_threshold_protocols_immune_to_spoofing(self):
        # Sender identity is irrelevant to the t*mf+1 counting rule.
        report = run(protocol="b", behavior="spoof", mf=30)
        assert report.outcome.wrong_good == 0


class TestConfigValidation:
    def test_unknown_protocol_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(protocol="nope")

    def test_placement_validated_against_t(self):
        from repro.errors import PlacementError

        grid = GridSpec(width=30, height=30, r=2, torus=True)
        with pytest.raises(PlacementError):
            run(
                protocol="b",
                t=1,
                grid=grid,
                placement=StripePlacement(y0=8, t=3),  # 3 bad per window > t=1
            )
