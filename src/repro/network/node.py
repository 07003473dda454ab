"""Node role bookkeeping.

A :class:`NodeTable` assigns every grid node a :class:`~repro.types.Role`
and validates the paper's standing assumptions eagerly:

- exactly one source, and the source is honest;
- the bad set is *locally bounded*: no neighborhood (closed L∞ ball of
  radius r around any node) contains more than ``t`` bad nodes.

The local-boundedness check walks only the neighborhoods of bad nodes
(O(bad·(2r+1)²)) and runs once per scenario; placements that violate it
fail fast with :class:`PlacementError`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import PlacementError
from repro.network.grid import Grid
from repro.types import NodeId, Role


class NodeTable:
    """Roles for every node of a grid."""

    def __init__(self, grid: Grid, source: NodeId, bad: Iterable[NodeId]) -> None:
        self.grid = grid
        self.source = source
        self.bad: frozenset[NodeId] = frozenset(bad)
        if source in self.bad:
            raise PlacementError("the base station (source) must be honest")
        out_of_range = [b for b in self.bad if not 0 <= b < grid.n]
        if out_of_range:
            raise PlacementError(f"bad node ids outside grid: {out_of_range[:5]}")
        self._roles: list[Role] = [Role.GOOD] * grid.n
        for node_id in self.bad:
            self._roles[node_id] = Role.BAD
        self._roles[source] = Role.SOURCE
        self._good_ids: list[NodeId] | None = None
        self._bad_ids: list[NodeId] | None = None

    def role(self, node_id: NodeId) -> Role:
        return self._roles[node_id]

    def is_bad(self, node_id: NodeId) -> bool:
        return self._roles[node_id] is Role.BAD

    def is_honest(self, node_id: NodeId) -> bool:
        return self._roles[node_id] is not Role.BAD

    @property
    def good_ids(self) -> list[NodeId]:
        """All honest nodes, source included.

        Computed once (roles never change) but returned as a fresh copy
        per call: tables are shared process-wide by the scenario
        runner's warm cache, so a caller mutating its list must never
        reach the cached state.
        """
        if self._good_ids is None:
            roles = self._roles
            bad = Role.BAD
            self._good_ids = [
                nid for nid in self.grid.all_ids() if roles[nid] is not bad
            ]
        return list(self._good_ids)

    @property
    def bad_ids(self) -> list[NodeId]:
        if self._bad_ids is None:
            self._bad_ids = sorted(self.bad)
        return list(self._bad_ids)

    def bad_in_neighborhood(self, node_id: NodeId) -> int:
        """Number of bad nodes in the closed neighborhood of ``node_id``."""
        count = sum(1 for nb in self.grid.neighbors(node_id) if nb in self.bad)
        if node_id in self.bad:
            count += 1
        return count

    def max_bad_per_neighborhood(self) -> int:
        """The realized local bound — max over all closed neighborhoods."""
        if not self.bad:
            return 0
        return max(self.bad_in_neighborhood(nid) for nid in self.grid.all_ids())

    def validate_locally_bounded(self, t: int) -> None:
        """Raise :class:`PlacementError` unless every neighborhood has <= t bad.

        The neighbor relation is symmetric, so a node's closed
        neighborhood holds exactly the bad nodes whose closed
        neighborhoods hold it: one walk over each bad node's ball counts
        every neighborhood that can exceed the bound — O(bad * (2r+1)^2)
        instead of O(n * (2r+1)^2), which is what lets a 10^6-node grid
        with a handful of bad nodes validate instantly. The violation
        reported is the lowest id's, the one a full ascending scan would
        hit first.
        """
        counts: dict[NodeId, int] = {}
        for bad_id in self.bad:
            counts[bad_id] = counts.get(bad_id, 0) + 1
            for node_id in self.grid.neighbors(bad_id):
                counts[node_id] = counts.get(node_id, 0) + 1
        over = [node_id for node_id, count in counts.items() if count > t]
        if over:
            node_id = min(over)
            raise PlacementError(
                f"neighborhood of node {self.grid.coord_of(node_id)} contains "
                f"{counts[node_id]} bad nodes, exceeding t={t}"
            )
