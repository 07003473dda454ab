"""Tests for role bookkeeping and local-boundedness validation."""

import random

import pytest

from repro.errors import PlacementError
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.types import Role


def make_grid():
    return Grid(GridSpec(12, 12, r=1, torus=True))


def test_roles_assigned():
    grid = make_grid()
    table = NodeTable(grid, source=0, bad={5, 17})
    assert table.role(0) is Role.SOURCE
    assert table.role(5) is Role.BAD
    assert table.role(1) is Role.GOOD
    assert table.is_bad(17) and not table.is_bad(1)
    assert table.is_honest(0) and not table.is_honest(5)


def test_source_must_be_honest():
    grid = make_grid()
    with pytest.raises(PlacementError):
        NodeTable(grid, source=5, bad={5})


def test_bad_ids_out_of_range_rejected():
    grid = make_grid()
    with pytest.raises(PlacementError):
        NodeTable(grid, source=0, bad={10_000})


def test_good_ids_includes_source_excludes_bad():
    grid = make_grid()
    table = NodeTable(grid, source=0, bad={5})
    good = table.good_ids
    assert 0 in good and 5 not in good
    assert len(good) == grid.n - 1


def test_bad_in_neighborhood_counts_closed_ball():
    grid = make_grid()
    center = grid.id_of((5, 5))
    neighbor_bad = grid.id_of((5, 6))
    table = NodeTable(grid, source=0, bad={center, neighbor_bad})
    # Closed neighborhood of `center` contains both bad nodes.
    assert table.bad_in_neighborhood(center) == 2
    # A faraway node sees none.
    assert table.bad_in_neighborhood(grid.id_of((0, 0))) == 0


def test_max_bad_per_neighborhood():
    grid = make_grid()
    table = NodeTable(grid, source=0, bad={grid.id_of((5, 5)), grid.id_of((6, 5))})
    assert table.max_bad_per_neighborhood() == 2
    assert NodeTable(grid, source=0, bad=set()).max_bad_per_neighborhood() == 0


def test_validate_locally_bounded():
    grid = make_grid()
    adjacent = {grid.id_of((5, 5)), grid.id_of((6, 5))}
    table = NodeTable(grid, source=0, bad=adjacent)
    table.validate_locally_bounded(2)  # fine
    with pytest.raises(PlacementError):
        table.validate_locally_bounded(1)


def _full_scan_verdict(table, t):
    """Referee: every closed neighborhood in ascending id order."""
    for node_id in table.grid.all_ids():
        count = table.bad_in_neighborhood(node_id)
        if count > t:
            return (
                f"neighborhood of node {table.grid.coord_of(node_id)} contains "
                f"{count} bad nodes, exceeding t={t}"
            )
    return None


def _verdict(table, t):
    try:
        table.validate_locally_bounded(t)
    except PlacementError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec(12, 12, r=1, torus=True),
        GridSpec(20, 20, r=2, torus=True),
        GridSpec(9, 7, r=2, torus=False),
        GridSpec(1, 30, r=3, torus=False),
    ],
)
def test_validate_locally_bounded_matches_full_scan(spec):
    # Sparse and dense placements, so both accepted and violating
    # tables (often with several violators) are compared.
    rng = random.Random(spec.n)
    grid = Grid(spec)
    verdicts = set()
    for _ in range(60):
        count = rng.choice((1, 2, 3, 5, 8, 13))
        bad = set(rng.sample(range(1, grid.n), min(count, grid.n - 1)))
        table = NodeTable(grid, source=0, bad=bad)
        for t in (0, 1, 2, 3):
            expected = _full_scan_verdict(table, t)
            assert _verdict(table, t) == expected
            verdicts.add(expected is None)
    assert verdicts == {True, False}
