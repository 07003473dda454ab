"""Tests for the ASCII decision-map renderer."""

from repro.adversary.placement import RandomPlacement
from repro.analysis.render import coverage_summary, render_decisions
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.scenario import ScenarioSpec, run


class StubNode:
    def __init__(self, decided, value=None):
        self.decided = decided
        self.accepted_value = value


def make_world():
    grid = Grid(GridSpec(6, 6, r=1, torus=True))
    bad = {grid.id_of((3, 3))}
    table = NodeTable(grid, source=0, bad=bad)
    nodes = {
        nid: StubNode(decided=nid % 2 == 0, value=1)
        for nid in table.good_ids
    }
    return grid, table, nodes


def test_render_characters():
    grid, table, nodes = make_world()
    nodes[grid.id_of((1, 0))] = StubNode(decided=True, value=0)  # wrong value
    art = render_decisions(table, nodes, vtrue=1)
    lines = art.splitlines()
    assert len(lines) == 6 and all(len(line) == 6 for line in lines)
    assert lines[0][0] == "S"
    assert lines[3][3] == "x"
    assert lines[0][1] == "!"  # wrong acceptance
    assert "#" in art and "." in art


def test_render_y_range():
    grid, table, nodes = make_world()
    art = render_decisions(table, nodes, vtrue=1, y_range=(2, 4))
    assert len(art.splitlines()) == 3


def test_coverage_summary_counts():
    grid, table, nodes = make_world()
    summary = coverage_summary(table, nodes, vtrue=1)
    good_non_source = len(table.good_ids) - 1
    decided = sum(1 for nid in table.good_ids if nid != 0 and nodes[nid].decided)
    assert f"{decided}/{good_non_source}" in summary
    assert "1 Byzantine" in summary


def test_render_on_real_run():
    spec = ScenarioSpec(
        grid=GridSpec(12, 12, r=1, torus=True),
        t=1,
        mf=1,
        placement=RandomPlacement(t=1, count=4, seed=0),
        protocol="b",
        batch_per_slot=4,
    )
    report = run(spec)
    art = render_decisions(report.table, report.nodes, 1)
    assert art.count("S") == 1
    assert art.count("x") == 4
    assert "!" not in art  # no wrong acceptance, ever
