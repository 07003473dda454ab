"""Integer grid topology with L∞ neighborhoods, toroidal or bounded.

The paper's network is a grid with one node per unit cell, transmission
radius ``r`` in the L∞ metric, and toroidal wrap-around "to avoid edge
effects". Impossibility experiments sometimes prefer a bounded grid where
a single stripe disconnects the network; both variants are supported.

Node ids are dense row-major integers (``id = y * width + x``) so that
per-node state lives in flat lists — this matters, as neighborhood
iteration is the hottest loop in the simulator.

Fast-path layout
----------------

Besides the legacy per-node neighbor tuples (offset order, kept stable
because adversary plans and tests iterate them), a :class:`Grid`
precomputes a *dense CSR-style* neighbor table:

- ``neighbor_ids`` — one flat ``array('q')`` of all neighbor ids,
  ascending within each node's segment;
- ``neighbor_starts`` — ``n + 1`` offsets so node ``v``'s neighbors are
  ``neighbor_ids[neighbor_starts[v]:neighbor_starts[v + 1]]``.

:meth:`neighbors_sorted` exposes the same segments as tuples — each one
is materialized by slicing ``neighbor_ids``, so the CSR table is the
single source of truth and the tuple view is what hot loops iterate
(tuple iteration only increfs pre-boxed ints; indexing an ``array``
boxes on every access). The per-slot delivery resolver
(:mod:`repro.radio.medium`) combines this with dense id-indexed scratch
buffers to do steady-state slot resolution with no dict/set churn.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

try:  # optional accelerator; every path below has a pure-python twin
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from repro.errors import ConfigurationError
from repro.geometry.linf import chebyshev, chebyshev_torus, linf_ball_offsets
from repro.types import Coord, NodeId


class _LazyNeighborView:
    """List-like per-node neighbor tuples, materialized on first access.

    The numpy grid build produces only the flat CSR arrays; this view
    recovers the legacy ``list[tuple[NodeId, ...]]`` interface without
    paying for a million tuple allocations up front. Materialized rows
    are cached, so hot loops that iterate one node's tuple repeatedly
    (adversary plans, the slot resolver) see plain pre-boxed ints
    exactly like the eager build.
    """

    __slots__ = ("_rows", "_make")

    def __init__(self, n: int, make) -> None:
        self._rows: list[tuple[NodeId, ...] | None] = [None] * n
        self._make = make

    def __getitem__(self, node_id: NodeId) -> tuple[NodeId, ...]:
        row = self._rows[node_id]
        if row is None:
            row = self._rows[node_id] = self._make(node_id)
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        for node_id in range(len(self._rows)):
            yield self[node_id]


@dataclass(frozen=True)
class GridSpec:
    """Static description of a grid network.

    Attributes:
        width/height: grid dimensions (nodes per row / column).
        r: transmission radius (L∞).
        torus: whether edges wrap. Toroidal grids must be at least
            ``2*(2r+1)`` on each side so that a neighborhood never wraps
            onto itself and TDMA slot classes stay collision-free.
    """

    width: int
    height: int
    r: int
    torus: bool = True

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigurationError(f"transmission radius must be >= 1, got {self.r}")
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("grid dimensions must be positive")
        side = 2 * self.r + 1
        if self.torus:
            if self.width < 2 * side or self.height < 2 * side:
                raise ConfigurationError(
                    f"toroidal grid must be at least {2 * side} per side for r={self.r}; "
                    f"got {self.width}x{self.height}"
                )
            if self.width % side or self.height % side:
                raise ConfigurationError(
                    f"toroidal dimensions must be multiples of 2r+1={side} so the TDMA "
                    f"coloring stays collision-free across the wrap; got "
                    f"{self.width}x{self.height}"
                )

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return self.width * self.height

    @property
    def neighborhood_size(self) -> int:
        """Open neighborhood size ``(2r+1)^2 - 1`` (interior nodes)."""
        side = 2 * self.r + 1
        return side * side - 1

    @property
    def half_neighborhood(self) -> int:
        """The paper's recurring quantity ``r(2r+1)``."""
        return self.r * (2 * self.r + 1)


class Grid:
    """A concrete grid with precomputed neighborhoods.

    ``fast`` builds the CSR neighbor table with NumPy when it is
    available; ``fast=False`` forces the byte-identical python build
    (the ``grid-build`` seam's reference twin).

    >>> grid = Grid(GridSpec(10, 10, r=1, torus=True))
    >>> len(grid.neighbors(grid.id_of((0, 0))))
    8
    """

    def __init__(self, spec: GridSpec, *, fast: bool = True) -> None:
        self.spec = spec
        self.width = spec.width
        self.height = spec.height
        self.r = spec.r
        self.torus = spec.torus
        self.n = spec.n
        # CSR table backing: the python build fills the array('q') pair
        # eagerly; the numpy build keeps int64 arrays and materializes
        # the array('q') views lazily (a 10^6-node grid pays the 200MB
        # copy only if a python-loop consumer actually asks for it).
        self._starts_arr: array | None = None
        self._ids_arr: array | None = None
        self._starts_np = None
        self._ids_np = None
        if _np is not None and fast:
            self._build_neighbors_numpy()
        else:
            self._neighbors: list[tuple[NodeId, ...]] = self._build_neighbors()
            self._neighbors_sorted: list[tuple[NodeId, ...]]
            self._build_flat_neighbors()

    # -- CSR views --------------------------------------------------------

    @property
    def neighbor_starts(self) -> array:
        """``n + 1`` segment offsets into :attr:`neighbor_ids` (``array('q')``)."""
        arr = self._starts_arr
        if arr is None:
            arr = self._starts_arr = array("q")
            arr.frombytes(self._starts_np.reshape(-1).data.cast("B"))
        return arr

    @property
    def neighbor_ids(self) -> array:
        """All neighbor ids, ascending within each segment (``array('q')``)."""
        arr = self._ids_arr
        if arr is None:
            arr = self._ids_arr = array("q")
            arr.frombytes(self._ids_np.reshape(-1).data.cast("B"))
        return arr

    def csr_arrays(self):
        """The CSR table as ``(starts, ids)`` int64 NumPy arrays.

        Zero-copy from whichever backing the build produced; only valid
        when NumPy is importable (the vector kernel is the consumer).
        """
        if self._starts_np is not None:
            return self._starts_np, self._ids_np
        starts = _np.frombuffer(self.neighbor_starts, dtype=_np.int64)
        ids = _np.frombuffer(self.neighbor_ids, dtype=_np.int64)
        return starts, ids

    # -- identity ---------------------------------------------------------

    def id_of(self, coord: Coord) -> NodeId:
        """Node id at a coordinate (wrapped on a torus, validated otherwise)."""
        x, y = coord
        if self.torus:
            x %= self.width
            y %= self.height
        elif not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigurationError(f"coordinate {coord} outside bounded grid")
        return y * self.width + x

    def coord_of(self, node_id: NodeId) -> Coord:
        if not 0 <= node_id < self.n:
            raise ConfigurationError(f"node id {node_id} out of range")
        return (node_id % self.width, node_id // self.width)

    def all_ids(self) -> range:
        return range(self.n)

    # -- metric -----------------------------------------------------------

    def distance(self, a: NodeId, b: NodeId) -> int:
        """L∞ distance between two nodes (toroidal if the grid wraps)."""
        ca, cb = self.coord_of(a), self.coord_of(b)
        if self.torus:
            return chebyshev_torus(ca, cb, self.width, self.height)
        return chebyshev(ca, cb)

    def neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Open L∞ neighborhood (excludes the node itself)."""
        return self._neighbors[node_id]

    def neighbors_sorted(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Open neighborhood as an ascending id tuple (fast-path view).

        Same members as :meth:`neighbors`, ordered by id — the view the
        per-slot delivery resolver iterates so its output comes out
        already sorted by receiver.
        """
        return self._neighbors_sorted[node_id]

    def closed_neighborhood(self, node_id: NodeId) -> tuple[NodeId, ...]:
        return self._neighbors[node_id] + (node_id,)

    def are_neighbors(self, a: NodeId, b: NodeId) -> bool:
        return a != b and self.distance(a, b) <= self.r

    def common_neighbors(self, a: NodeId, b: NodeId) -> set[NodeId]:
        return set(self._neighbors[a]) & set(self._neighbors[b])

    # -- construction -----------------------------------------------------

    def _build_neighbors(self) -> list[tuple[NodeId, ...]]:
        return [self._offset_row(node_id) for node_id in range(self.n)]

    def _build_flat_neighbors(self) -> None:
        """Build the dense CSR neighbor table from the offset-order tuples.

        ``neighbor_ids`` holds every node's neighbors ascending; the
        sorted per-node tuples are sliced straight out of it so the two
        views can never drift apart.
        """
        starts = array("q", [0])
        flat = array("q")
        for ids in self._neighbors:
            flat.extend(sorted(ids))
            starts.append(len(flat))
        self._starts_arr = starts
        self._ids_arr = flat
        self._neighbors_sorted = [
            tuple(flat[starts[v] : starts[v + 1]]) for v in range(self.n)
        ]

    def _build_neighbors_numpy(self) -> None:
        """NumPy twin of the neighbor-table build (identical output).

        An interior node's ascending neighbor ids are exactly
        ``id + sorted(dy*width + dx)`` — a single broadcast add, no
        per-row sort. Only the O(r * perimeter) rows within ``r`` of an
        edge wrap (torus) or truncate (bounded); those few are fixed up
        from :meth:`_offset_row`. The legacy per-node tuple views
        (``_neighbors`` in offset order, ``_neighbors_sorted``
        ascending) become lazy slices so a 10^6-node grid never
        materializes a million tuples it will not touch.
        """
        offsets = linf_ball_offsets(self.r)
        width, height, n, r = self.width, self.height, self.n, self.r
        k = len(offsets)
        interior_offs = _np.array(
            sorted(dy * width + dx for dx, dy in offsets), dtype=_np.int64
        )
        ids = _np.arange(n, dtype=_np.int64)
        cols = ids[:, None] + interior_offs
        xs = ids % width
        ys = ids // width
        edge = (xs < r) | (xs >= width - r) | (ys < r) | (ys >= height - r)
        sentinel = n  # bounded rows are padded; sentinels never survive
        for v in _np.nonzero(edge)[0].tolist():
            row = sorted(self._offset_row(v))
            row += [sentinel] * (k - len(row))  # bounded rows only
            cols[v, :] = row
        if self.torus:
            flat_np = cols.reshape(-1)
            starts_np = _np.arange(0, (n + 1) * k, k, dtype=_np.int64)
        else:
            keep = cols < sentinel
            flat_np = cols[keep]
            starts_np = _np.zeros(n + 1, dtype=_np.int64)
            _np.cumsum(keep.sum(axis=1), out=starts_np[1:])
        self._starts_np = _np.ascontiguousarray(starts_np)
        self._ids_np = _np.ascontiguousarray(flat_np)
        self._neighbors = _LazyNeighborView(n, self._offset_row)
        self._neighbors_sorted = _LazyNeighborView(n, self._sorted_row)

    def _offset_row(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """One node's neighbors in ball-offset order (the legacy order).

        The one copy of the torus/bounded neighbor formula: both grid
        builds derive their rows from it.
        """
        offsets = linf_ball_offsets(self.r)
        width, height = self.width, self.height
        x, y = node_id % width, node_id // width
        if self.torus:
            return tuple(
                ((y + dy) % height) * width + ((x + dx) % width)
                for dx, dy in offsets
            )
        return tuple(
            (y + dy) * width + (x + dx)
            for dx, dy in offsets
            if 0 <= x + dx < width and 0 <= y + dy < height
        )

    def _sorted_row(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """One node's neighbors ascending, sliced from the CSR table."""
        starts, ids = self._starts_np, self._ids_np
        if ids is not None:  # slice the int64 backing; tolist boxes to int
            return tuple(ids[starts[node_id] : starts[node_id + 1]].tolist())
        starts = self.neighbor_starts
        return tuple(self.neighbor_ids[starts[node_id] : starts[node_id + 1]])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "torus" if self.torus else "bounded"
        return f"<Grid {self.width}x{self.height} r={self.r} {kind}>"

