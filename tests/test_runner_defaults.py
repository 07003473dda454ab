"""Tests for runner default wiring (budgets, max rounds, report handles)."""

import pytest

from repro.adversary.placement import RandomPlacement
from repro.analysis.bounds import koo_budget, protocol_b_relay_count
from repro.network.grid import GridSpec
from repro.protocols.protocol_b import protocol_b_required_budget
from repro.scenario import ScenarioSpec
from repro.scenario import run as run_spec

GRID = GridSpec(width=12, height=12, r=1, torus=True)
PLACEMENT = RandomPlacement(t=1, count=4, seed=9)


def run(**kwargs):
    defaults = dict(
        grid=GRID, t=1, mf=2, placement=PLACEMENT, protocol="b", batch_per_slot=4
    )
    defaults.update(kwargs)
    return run_spec(ScenarioSpec(**defaults))


class TestDefaultBudgets:
    def test_protocol_b_defaults_to_2m0(self):
        report = run()
        expected = protocol_b_required_budget(1, 1, 2)
        non_source = next(
            nid for nid in report.table.good_ids if nid != report.table.source
        )
        assert report.assignment.budget_of(non_source) == expected

    def test_koo_defaults_to_2tmf_plus_1(self):
        report = run(protocol="koo")
        non_source = next(
            nid for nid in report.table.good_ids if nid != report.table.source
        )
        assert report.assignment.budget_of(non_source) == koo_budget(1, 2)

    def test_source_always_unbounded(self):
        report = run()
        assert report.ledger.budget_of(report.table.source) is None

    def test_bad_budgets_are_mf(self):
        report = run(mf=3)
        for bad in report.table.bad_ids:
            assert report.ledger.budget_of(bad) == 3

    def test_heter_ignores_m(self):
        report = run(protocol="heter", m=99)
        assert report.assignment.maximum == protocol_b_relay_count(1, 1, 2)


class TestReportHandles:
    def test_report_exposes_live_objects(self):
        report = run()
        assert report.grid.n == GRID.n
        assert report.success == report.outcome.success
        assert set(report.nodes) == set(report.table.good_ids)

    def test_relay_override_changes_sends(self):
        default = run(m=None)
        boosted = run(m=6, protocol_params={"relay_override": 6})
        assert boosted.costs.good_max == 6
        assert default.costs.good_max == protocol_b_relay_count(1, 1, 2)


class TestMaxRoundsDefaults:
    def test_default_cap_suffices_for_success(self):
        report = run(max_rounds=None)
        assert report.success and report.stats.quiescent

    def test_tiny_cap_reports_non_quiescent(self):
        report = run(max_rounds=1)
        assert not report.stats.quiescent

    def test_reactive_default_cap_suffices(self):
        report = run_spec(
            ScenarioSpec(
                grid=GRID,
                t=1,
                mf=1,
                mmax=100,
                placement=PLACEMENT,
                protocol="reactive",
                seed=0,
            )
        )
        assert report.success and report.stats.quiescent


class TestVtruePlumbing:
    def test_custom_vtrue_value(self):
        report = run(vtrue=7)
        decided = [n for n in report.nodes.values() if n.decided]
        assert decided
        assert all(n.accepted_value == 7 for n in decided)
        assert report.outcome.correct

    def test_m_must_be_positive_via_bounds(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(max_rounds=0)
