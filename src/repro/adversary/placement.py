"""Bad-node placements.

Each placement produces a set of bad node ids satisfying the
locally-bounded constraint (at most ``t`` bad per closed neighborhood);
:class:`~repro.network.node.NodeTable` re-validates on construction, so a
buggy placement cannot silently weaken an experiment.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from repro.errors import PlacementError
from repro.network.grid import Grid, GridSpec
from repro.types import NodeId


class Placement(ABC):
    """Strategy choosing which nodes the adversary corrupts."""

    @abstractmethod
    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        """The corrupted set (never including the source)."""


def _fill_window_top_down(
    grid: Grid, x_start: int, top_row: int, t: int, downward: bool
) -> list[NodeId]:
    """Corrupt ``t`` nodes of one ``(2r+1)``-wide stripe window.

    Mirrors Figure 1: start at the window's corner nearest the victim
    area, fill left-to-right, then proceed to the next row away from it.
    """
    side = 2 * grid.r + 1
    step = -1 if downward else 1
    chosen = []
    row = top_row
    remaining = t
    while remaining > 0:
        take = min(remaining, side)
        for dx in range(take):
            chosen.append(grid.id_of((x_start + dx, row)))
        remaining -= take
        row += step
    return chosen


@dataclass(frozen=True)
class StripePlacement(Placement):
    """Theorem 1's stripe adversary.

    Corrupts ``t`` nodes per ``(2r+1)``-wide window of an ``r``-row stripe
    whose rows are ``y0 .. y0 + r - 1``. ``victims_above`` selects which
    corner of each window the filling starts from (the side facing the
    area to be starved).

    Any sliding ``(2r+1)``-window over the stripe sees exactly ``t`` bad
    nodes (the paper's worst case); tests verify local-boundedness.
    """

    y0: int
    t: int
    victims_above: bool = True

    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        side = 2 * grid.r + 1
        if self.t > grid.r * side:
            raise PlacementError(
                f"stripe cannot hold t={self.t} > r(2r+1)={grid.r * side} per window"
            )
        if grid.width % side:
            raise PlacementError(
                f"grid width {grid.width} is not a multiple of 2r+1={side}; "
                "stripe windows would be ragged"
            )
        top_row = self.y0 + grid.r - 1 if self.victims_above else self.y0
        bad: set[NodeId] = set()
        for x_start in range(0, grid.width, side):
            bad.update(
                _fill_window_top_down(
                    grid, x_start, top_row, self.t, downward=self.victims_above
                )
            )
        if source in bad:
            raise PlacementError("stripe placement would corrupt the source")
        return bad


@dataclass(frozen=True)
class CombinedPlacement(Placement):
    """Union of component placements (e.g. the two stripes of a torus band).

    Component sets may not overlap — overlapping corruption would make
    per-window budget accounting ambiguous.
    """

    parts: tuple[Placement, ...]

    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        combined: set[NodeId] = set()
        for part in self.parts:
            ids = part.bad_ids(grid, source)
            if combined & ids:
                raise PlacementError("combined placements overlap")
            combined |= ids
        return combined


def two_stripe_band(
    grid: Grid | GridSpec, t: int, band_height: int, below_y0: int
) -> tuple[CombinedPlacement, range]:
    """Two stripes bounding a victim band on a torus.

    On a torus a single stripe blocks nothing (the 'far side' wraps back
    around), so impossibility experiments bound a band of ``band_height``
    rows between two stripes. Returns the combined placement and the
    victim rows (:func:`band_ids` turns them into node ids). The stripes
    face the band: each fills from the row adjacent to it. Neighborhoods
    never see more than ``t`` bad nodes because the band keeps the
    stripes more than ``2r`` apart. Only ``r`` is read, so a
    :class:`GridSpec` serves as well as a built grid.
    """
    r = grid.r
    if band_height < 2 * r + 1:
        raise PlacementError(
            f"victim band must be at least 2r+1={2 * r + 1} rows so no "
            f"neighborhood touches both stripes"
        )
    lower = StripePlacement(below_y0, t, victims_above=True)
    band_start = below_y0 + r
    upper = StripePlacement(band_start + band_height, t, victims_above=False)
    return (
        CombinedPlacement((lower, upper)),
        range(band_start, band_start + band_height),
    )


def band_ids(spec: GridSpec, rows: Iterable[int]) -> tuple[NodeId, ...]:
    """Ids of every node in ``rows``, row by row, each left to right.

    :meth:`Grid.id_of`'s arithmetic on the spec alone, so building a
    scenario's protected band needs no :class:`Grid`: rows wrap on a
    torus and must lie inside a bounded grid.
    """
    width, height = spec.width, spec.height
    ids: list[NodeId] = []
    for y in rows:
        if spec.torus:
            y %= height
        elif not 0 <= y < height:
            raise PlacementError(f"row {y} outside bounded grid")
        ids.extend(range(y * width, (y + 1) * width))
    return tuple(ids)


@dataclass(frozen=True)
class LatticePlacement(Placement):
    """Figure 2's placement: a regular lattice with period ``2r+1``.

    Puts a cluster of ``cluster`` bad nodes (filled left-to-right, then
    downward) at every lattice site ``(x0 + i*(2r+1), y0 + j*(2r+1))``, so
    every closed neighborhood contains exactly ``cluster`` bad nodes —
    "every neighborhood has exactly one bad node" for ``cluster=1``.
    """

    x0: int
    y0: int
    cluster: int = 1

    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        side = 2 * grid.r + 1
        if self.cluster < 1:
            raise PlacementError("cluster size must be >= 1")
        if grid.width % side or grid.height % side:
            raise PlacementError(
                f"lattice placement needs dimensions divisible by 2r+1={side}"
            )
        bad: set[NodeId] = set()
        for y in range(self.y0 % side, grid.height, side):
            for x in range(self.x0 % side, grid.width, side):
                bad.update(_fill_window_top_down(grid, x, y, self.cluster, downward=False))
        if source in bad:
            raise PlacementError(
                "lattice placement would corrupt the source; shift x0/y0"
            )
        return bad


@dataclass(frozen=True)
class BernoulliPlacement(Placement):
    """Independent per-node failure with probability ``p`` (refs [4, 5]).

    The probabilistic-failure model of Bhandari-Vaidya, named by the
    paper's §6 as future work: every non-source node is faulty with
    probability ``p``, independently — deliberately *not* locally
    bounded (runs using it must skip the local-bound validation).
    """

    p: float
    seed: int

    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        if not 0.0 <= self.p <= 1.0:
            raise PlacementError(f"failure probability must be in [0,1], got {self.p}")
        rng = random.Random(self.seed)
        return {
            nid
            for nid in grid.all_ids()
            if nid != source and rng.random() < self.p
        }


@dataclass(frozen=True)
class RandomPlacement(Placement):
    """Random locally-bounded placement (greedy rejection).

    Corrupts up to ``count`` nodes chosen uniformly at random, skipping
    any candidate that would push some closed neighborhood beyond ``t``.
    Deterministic given the seed.
    """

    t: int
    count: int
    seed: int

    def bad_ids(self, grid: Grid, source: NodeId) -> set[NodeId]:
        if self.t < 1:
            raise PlacementError("random placement needs t >= 1")
        if self.count <= 0:
            # Identical result to the loop below (which would break on its
            # first iteration) without shuffling the full id list — at 10^6
            # nodes the shuffle costs more than the broadcast run.
            return set()
        rng = random.Random(self.seed)
        candidates = [nid for nid in grid.all_ids() if nid != source]
        rng.shuffle(candidates)
        # counts[c] = bad nodes currently in the closed neighborhood of c
        counts = [0] * grid.n
        bad: set[NodeId] = set()
        for candidate in candidates:
            if len(bad) >= self.count:
                break
            affected = grid.closed_neighborhood(candidate)
            if all(counts[c] < self.t for c in affected):
                bad.add(candidate)
                for c in affected:
                    counts[c] += 1
        return bad


# Self-registration: these names key placement serialization in
# ScenarioSpec JSON ({"kind": "stripe", ...}) — see repro.scenario.spec.
from repro.scenario.registries import placements as _placements  # noqa: E402

_placements.register("stripe", StripePlacement)
_placements.register("combined", CombinedPlacement)
_placements.register("lattice", LatticePlacement)
_placements.register("bernoulli", BernoulliPlacement)
_placements.register("random", RandomPlacement)
