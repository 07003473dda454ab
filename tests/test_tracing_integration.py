"""Integration tests for structured tracing through a full run."""

from repro.adversary.placement import RandomPlacement, two_stripe_band
from repro.network.grid import Grid, GridSpec
from repro.scenario import ScenarioSpec, run
from repro.sim.trace import Tracer


def test_deliveries_traced_match_stats():
    tracer = Tracer(enabled=True)
    spec = ScenarioSpec(
        grid=GridSpec(12, 12, r=1, torus=True),
        t=1,
        mf=1,
        placement=RandomPlacement(t=1, count=3, seed=0),
        protocol="b",
        batch_per_slot=4,
    )
    report = run(spec, tracer=tracer)
    assert report.success
    assert tracer.count("radio.deliver") == report.stats.deliveries
    corrupted = [
        event for event in tracer.of_kind("radio.deliver") if event.data["corrupted"]
    ]
    assert len(corrupted) == report.stats.corrupted_deliveries


def test_jam_events_traced_and_charged():
    grid_spec = GridSpec(30, 30, r=2, torus=True)
    grid = Grid(grid_spec)
    placement, band_rows = two_stripe_band(grid, t=2, band_height=6, below_y0=8)
    band = [grid.id_of((x, y)) for y in band_rows for x in range(30)]
    tracer = Tracer(enabled=True, keep=lambda e: e.kind.startswith("adversary"))
    spec = ScenarioSpec(
        grid=grid_spec,
        t=2,
        mf=3,
        placement=placement,
        protocol="b",
        m=1,
        protected=band,
        batch_per_slot=4,
    )
    report = run(spec, tracer=tracer)
    jams = tracer.of_kind("adversary.jam")
    assert len(jams) == report.costs.bad_total
    # Every traced jammer really is a Byzantine node and was charged.
    for event in jams:
        jammer = event.data["jammer"]
        assert report.table.is_bad(jammer)
        assert report.ledger.sent(jammer) >= 1
