"""Certified Propagation (Koo [13] / Bhandari-Vaidya [3]).

The classic multi-hop protocol for the locally-bounded model *without*
message bounds: a node accepts a value heard directly from the source, or
vouched for by ``t + 1`` distinct neighbors; it then relays its accepted
value once. Tolerates ``t < r(2r+1)/2`` on the grid.

In this package CPA plays two roles:

- the multi-hop layer of ``B_reactive`` (§5), running on top of the
  reliable reactive local broadcast, and
- a baseline in ablations showing *why* the integrity code is needed:
  under collision spoofing (a jammer forging the apparent sender) naive
  CPA accepts wrong values, which the coded channel prevents.
"""

from __future__ import annotations

from collections import defaultdict

from repro.network.node import NodeTable
from repro.protocols.base import BroadcastNode, BroadcastParams
from repro.types import NodeId, Role, Value


class CpaNode(BroadcastNode):
    """Certified-propagation node.

    ``relay_repeats`` lets the same logic run over an unreliable medium
    (repeat the single logical relay several times); the reactive protocol
    uses its own retransmission loop and keeps this at 1.
    """

    __slots__ = ("source_id", "_endorsements", "_relay_repeats")

    def __init__(
        self,
        node_id: NodeId,
        role: Role,
        params: BroadcastParams,
        source_id: NodeId,
        relay_repeats: int = 1,
    ) -> None:
        self.source_id = source_id
        self._relay_repeats = relay_repeats
        self._endorsements: dict[Value, set[NodeId]] = defaultdict(set)
        super().__init__(node_id, role, params)

    def initial_source_sends(self) -> int:
        # In the collision-free / reliable-local-broadcast setting the
        # source speaks once; its neighbors accept directly.
        return self._relay_repeats

    def relay_count(self) -> int:
        return self._relay_repeats

    def on_value(self, sender: NodeId, value: Value) -> None:
        if self._decided:
            return
        if sender == self.source_id:
            self._decide(value)
            return
        endorsers = self._endorsements[value]
        endorsers.add(sender)
        if len(endorsers) >= self.params.t + 1:
            self._decide(value)

    @property
    def endorsements(self) -> dict[Value, set[NodeId]]:
        """Distinct non-source endorsers heard per value before deciding."""
        if self._tally is not None:
            self._settle()
        return self._endorsements

    def _settle(self) -> None:
        tally = self._tally
        super()._settle()
        self._endorsements = tally.endorsements(self.node_id)


def make_cpa_nodes(
    table: NodeTable, params: BroadcastParams, relay_repeats: int = 1
) -> dict[NodeId, CpaNode]:
    """One CPA node per honest grid node."""
    nodes: dict[NodeId, CpaNode] = {}
    for nid in table.good_ids:
        role = Role.SOURCE if nid == table.source else Role.GOOD
        nodes[nid] = CpaNode(
            nid, role, params, source_id=table.source, relay_repeats=relay_repeats
        )
    return nodes


def _build_cpa(ctx):
    """Registered "cpa" scenario assembly (certified propagation)."""
    from repro.analysis.budgets import homogeneous_assignment
    from repro.scenario.registries import ProtocolBuild, default_threshold_max_rounds

    spec, params = ctx.spec, ctx.params
    nodes = make_cpa_nodes(ctx.table, params)
    good_budget = spec.m if spec.m is not None else 1
    assignment = homogeneous_assignment(ctx.grid, ctx.source, good_budget)
    return ProtocolBuild(
        nodes=nodes,
        assignment=assignment,
        max_rounds=default_threshold_max_rounds(
            spec.grid, params.source_sends, max(assignment.maximum, 1)
        ),
    )


from repro.scenario.registries import ProtocolEntry, protocols as _protocols  # noqa: E402

_protocols.register(
    "cpa",
    ProtocolEntry(
        "cpa",
        _build_cpa,
        default_behavior="jam",
        description="certified propagation [13]/[3]: t+1 endorsements",
    ),
)
