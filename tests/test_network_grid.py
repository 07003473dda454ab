"""Tests for the grid topology."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.network.grid import Grid, GridSpec


def torus(width=12, height=12, r=1):
    return Grid(GridSpec(width=width, height=height, r=r, torus=True))


def bounded(width=10, height=8, r=2):
    return Grid(GridSpec(width=width, height=height, r=r, torus=False))


class TestGridSpec:
    def test_basic_properties(self):
        spec = GridSpec(12, 12, r=2, torus=False)
        assert spec.n == 144
        assert spec.neighborhood_size == 24
        assert spec.half_neighborhood == 10

    def test_radius_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GridSpec(12, 12, r=0)

    def test_torus_requires_multiple_of_2r_plus_1(self):
        with pytest.raises(ConfigurationError):
            GridSpec(13, 12, r=1, torus=True)

    def test_torus_requires_min_size(self):
        with pytest.raises(ConfigurationError):
            GridSpec(3, 3, r=1, torus=True)  # needs >= 2*(2r+1) = 6

    def test_bounded_grid_any_size(self):
        assert GridSpec(5, 7, r=2, torus=False).n == 35


class TestIdentity:
    def test_row_major_ids(self):
        grid = torus()
        assert grid.id_of((0, 0)) == 0
        assert grid.id_of((3, 2)) == 2 * 12 + 3
        assert grid.coord_of(27) == (3, 2)

    def test_torus_id_wraps(self):
        grid = torus()
        assert grid.id_of((-1, 0)) == grid.id_of((11, 0))
        assert grid.id_of((0, 12)) == 0

    def test_bounded_rejects_out_of_range(self):
        grid = bounded()
        with pytest.raises(ConfigurationError):
            grid.id_of((-1, 0))

    def test_coord_of_out_of_range(self):
        with pytest.raises(ConfigurationError):
            torus().coord_of(10_000)

    @given(st.integers(0, 143))
    def test_id_coord_roundtrip(self, node_id):
        grid = torus()
        assert grid.id_of(grid.coord_of(node_id)) == node_id


class TestNeighborhoods:
    def test_interior_neighborhood_size(self):
        grid = torus(r=1)
        assert len(grid.neighbors(grid.id_of((5, 5)))) == 8

    def test_torus_neighborhood_wraps(self):
        grid = torus(r=1)
        corner = grid.id_of((0, 0))
        neighbors = {grid.coord_of(n) for n in grid.neighbors(corner)}
        assert (11, 11) in neighbors
        assert (1, 1) in neighbors
        assert len(neighbors) == 8

    def test_bounded_corner_clipped(self):
        grid = bounded(r=2)
        corner = grid.id_of((0, 0))
        assert len(grid.neighbors(corner)) == 8  # 3x3 minus self

    def test_neighbors_exclude_self(self):
        grid = torus(r=2, width=15, height=15)
        for nid in (0, 37, 100):
            assert nid not in grid.neighbors(nid)

    def test_closed_neighborhood_includes_self(self):
        grid = torus(r=1)
        assert 0 in grid.closed_neighborhood(0)

    def test_are_neighbors_symmetric(self):
        grid = torus(r=2, width=15, height=15)
        a, b = grid.id_of((0, 0)), grid.id_of((2, 2))
        assert grid.are_neighbors(a, b) and grid.are_neighbors(b, a)
        c = grid.id_of((3, 0))
        assert not grid.are_neighbors(a, c)

    def test_common_neighbors(self):
        grid = torus(r=1)
        a, b = grid.id_of((0, 0)), grid.id_of((2, 0))
        common = {grid.coord_of(n) for n in grid.common_neighbors(a, b)}
        assert common == {(1, 0), (1, 1), (1, 11)}

    @settings(max_examples=30)
    @given(st.integers(0, 224))
    def test_neighbor_relation_matches_distance(self, node_id):
        grid = torus(r=2, width=15, height=15)
        neighbor_set = set(grid.neighbors(node_id))
        for other in range(grid.n):
            in_range = 0 < grid.distance(node_id, other) <= grid.r
            assert (other in neighbor_set) == in_range


class TestDistance:
    def test_torus_distance(self):
        grid = torus(r=1)
        assert grid.distance(grid.id_of((0, 0)), grid.id_of((11, 11))) == 1
        assert grid.distance(grid.id_of((0, 0)), grid.id_of((6, 0))) == 6

    def test_bounded_distance(self):
        grid = bounded()
        assert grid.distance(grid.id_of((0, 0)), grid.id_of((9, 7))) == 9


class TestFlatNeighborArrays:
    """The dense CSR table must exactly mirror grid.neighbors()."""

    def _check_grid(self, grid):
        starts, flat = grid.neighbor_starts, grid.neighbor_ids
        assert len(starts) == grid.n + 1
        assert starts[0] == 0 and starts[-1] == len(flat)
        for node_id in grid.all_ids():
            segment = list(flat[starts[node_id] : starts[node_id + 1]])
            assert segment == sorted(grid.neighbors(node_id))
            assert segment == list(grid.neighbors_sorted(node_id))
            assert segment == sorted(set(segment))  # no duplicates

    @pytest.mark.parametrize("r", [1, 2])
    def test_torus_matches_neighbors(self, r):
        side = 2 * r + 1
        self._check_grid(torus(width=4 * side, height=2 * side, r=r))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bounded_matches_neighbors(self, r):
        self._check_grid(bounded(width=9, height=7, r=r))

    def test_bounded_one_cell_grid_has_empty_table(self):
        grid = bounded(width=1, height=1, r=1)
        assert len(grid.neighbor_ids) == 0
        assert list(grid.neighbor_starts) == [0, 0]

    @settings(max_examples=30)
    @given(st.integers(0, 15 * 15 - 1))
    def test_sorted_view_is_a_permutation_of_offset_view(self, node_id):
        grid = torus(r=2, width=15, height=15)
        assert sorted(grid.neighbors(node_id)) == list(
            grid.neighbors_sorted(node_id)
        )
        assert set(grid.neighbors(node_id)) == set(
            grid.neighbors_sorted(node_id)
        )


def _offset_formula(spec, node_id):
    """A node's neighbors in ball-offset order, from the L∞ definition."""
    r, width, height = spec.r, spec.width, spec.height
    x, y = node_id % width, node_id // width
    row = []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if (dx, dy) == (0, 0):
                continue
            nx, ny = x + dx, y + dy
            if spec.torus:
                nx, ny = nx % width, ny % height
            elif not (0 <= nx < width and 0 <= ny < height):
                continue
            row.append(ny * width + nx)
    return tuple(row)


class TestSharedRows:
    """Every row holds the grid's one boxed int per id."""

    SPECS = [
        GridSpec(width=30, height=30, r=2, torus=True),
        GridSpec(width=25, height=21, r=3, torus=False),
        GridSpec(width=2, height=1, r=1, torus=False),  # one-neighbor rows
    ]

    @pytest.mark.parametrize("build", ["python", "numpy"])
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_equal_ids_in_any_two_rows_are_one_object(self, spec, build):
        if build == "numpy":
            pytest.importorskip("numpy")
        grid = Grid(spec, fast=build == "numpy")
        canonical = {}
        for node_id in grid.all_ids():
            offset = grid.neighbors(node_id)
            ordered = grid.neighbors_sorted(node_id)
            assert offset == _offset_formula(spec, node_id)
            assert ordered == tuple(sorted(offset))
            for nid in offset + ordered:
                assert canonical.setdefault(nid, nid) is nid
        # beyond CPython's small-int cache, where sharing is not free
        assert spec.n < 256 or max(canonical) > 256

    def test_members_within_refuses_a_radius_that_wraps(self):
        grid = torus(r=1)  # 12x12: a radius-6 ball meets itself
        assert grid.members_within([0], 5)
        with pytest.raises(ConfigurationError):
            grid.members_within([0], 6)
