"""Flat-array protocol state: batched delivery distribution engines.

The per-delivery cost of a scenario run is dominated not by slot
resolution (memoized since the slot fast path) but by *distribution*:
one ``on_receive`` call per delivery, each updating a per-node
``Counter`` / dict-of-sets. These engines move the hottest protocol
state onto flat id-indexed arrays shared by all nodes of a run:

- :class:`FlatThresholdEngine` — the ``t*mf + 1``-copies acceptance rule
  of :class:`~repro.protocols.base.ThresholdNode` (protocols B, Koo,
  B_heter) as per-value ``counts`` integer arrays plus a ``decided``
  bitmap;
- :class:`FlatCpaEngine` — certified propagation's distinct-endorser
  rule (:class:`~repro.protocols.cpa.CpaNode`) as per-value endorsement
  *count* arrays, a ``decided`` bitmap, and a packed ``(receiver,
  sender)`` seen-set for the distinctness constraint.

The node classes keep their historical dict/Counter implementations as
the reference path (a ``Tier.REFERENCE`` run routes whole scenarios
through them; the equivalence suite asserts identical reports, mirroring
``resolve_slot_reference``). After a run, :meth:`sync_nodes` writes the
flat state back into each node's ``value_counts`` / ``endorsements`` /
``received_total`` so reports and tests observe exactly the state the
reference path would have produced.

Batched distribution
--------------------

``distribute(batch, round_index, repeat)`` consumes one resolved slot,
a :class:`~repro.radio.medium.DeliveryBatch`, one *segment* at a time:
a segment is one transmission's outcome ``(sender, value, kind,
corrupted, receivers)``, so the value lookup and the per-sender checks
(CPA's source rule) happen once per segment, and the inner loop runs
over the segment's receiver tuple. One ``skip`` bitmap (unmanaged or
already decided) is the only per-receiver filter, so a Byzantine
receiver inside a segment never reaches the decision rule. Nothing is
planned or cached per batch: a segment already groups its receivers by
value.
``repeat > 1`` applies one batch several times at once (the driver's
burst dedup): counts advance by ``repeat`` and a threshold crossing is
detected as ``old < threshold <= old + repeat``, which is exactly where
per-copy processing would have decided.

Equivalence constraints the engines rely on (and the drivers preserve):
a receiver hears at most one delivery per resolved slot (so the order
segments are applied in cannot matter), decisions are monotone, and
``ThresholdNode``/``CpaNode`` pending sends only ever appear at decide
time — which is why ``newly_pending`` (drained by the
driver's candidate tracker) is complete.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress
from typing import Mapping

from repro.protocols.base import BroadcastParams, ThresholdNode
from repro.protocols.cpa import CpaNode
from repro.radio.messages import MessageKind
from repro.types import NodeId, Value


class FlatThresholdEngine:
    """Shared flat state for a run of :class:`ThresholdNode` instances.

    The live loop maintains only what decisions depend on: per-value
    counts for *undecided* receivers. Everything else — per-node
    ``received_total`` and the final ``value_counts`` — is pure
    accounting, recomputed exactly at :meth:`sync_nodes` from per-batch
    hit counters (each ``distribute`` call is one O(1) increment), so a
    decided node costs one bitmap read per delivery instead of three
    array updates.
    """

    def __init__(
        self, nodes: Mapping[NodeId, ThresholdNode], n: int, threshold: int
    ) -> None:
        self.n = n
        self.threshold = threshold
        self._nodes = nodes
        self.decided = bytearray(n)
        # 1 = never count here: not a managed node, or already decided.
        self._skip = bytearray(b"\x01") * n
        self._counts: dict[Value, list[int]] = {}
        # id(batch) -> [total hits, batch]; the strong reference keeps
        # the id stable. Accounting, not a cache: never dropped mid-run.
        self._batch_hits: dict[int, list] = {}
        self.newly_pending: list[NodeId] = []
        for nid, node in nodes.items():
            if node.decided:
                self.decided[nid] = 1
            else:
                self._skip[nid] = 0

    def distribute(self, batch, round_index: int, repeat: int = 1) -> None:
        entry = self._batch_hits.get(id(batch))
        if entry is not None and entry[1] is batch:
            entry[0] += repeat
        else:
            self._batch_hits[id(batch)] = [repeat, batch]
        skip = self._skip
        threshold = self.threshold
        counts_by_value = self._counts
        data = MessageKind.DATA
        for _sender, value, kind, _corrupted, receivers in batch.segments:
            if kind is not data:
                continue
            counts = counts_by_value.get(value)
            if counts is None:
                counts = counts_by_value[value] = [0] * self.n
            if repeat == 1:
                for rec in receivers:
                    if skip[rec]:
                        continue
                    c = counts[rec] + 1
                    counts[rec] = c
                    if c == threshold:
                        self._decide(rec, value, round_index)
            else:
                for rec in receivers:
                    if skip[rec]:
                        continue
                    c = counts[rec]
                    counts[rec] = c + repeat
                    if c < threshold <= c + repeat:
                        self._decide(rec, value, round_index)

    def _decide(self, rec: NodeId, value: Value, round_index: int) -> None:
        node = self._nodes[rec]
        # The reference path keeps _current_round fresh via on_round_end;
        # the engine stamps it at the only moment it is observable.
        node._current_round = round_index
        node._decide(value)
        self.decided[rec] = 1
        self._skip[rec] = 1
        if node.has_pending():
            self.newly_pending.append(rec)

    def sync_nodes(self) -> None:
        """Write the reference-shape state back into the nodes.

        Replays the per-batch hit counters over each batch's DATA
        segments, which reproduces exactly the ``received_total`` /
        ``value_counts`` the per-delivery reference path accumulates
        (counts at unmanaged receivers are tallied but never read).
        Hits are summed per ``(value, receivers)`` first: a full segment
        is the grid's own neighbor tuple, so every batch it recurs in
        costs one dict update, and each distinct tuple is walked once.
        """
        n = self.n
        data = MessageKind.DATA
        grouped: defaultdict[Value, defaultdict[tuple[NodeId, ...], int]] = (
            defaultdict(lambda: defaultdict(int))
        )
        for hits, batch in self._batch_hits.values():
            for _sender, value, kind, _corrupted, receivers in batch.segments:
                if kind is data:
                    grouped[value][receivers] += hits
        totals: dict[Value, list[int]] = {}
        for value, by_receivers in grouped.items():
            counts = totals[value] = [0] * n
            for receivers, hits in by_receivers.items():
                for rec in receivers:
                    counts[rec] += hits
        received = (
            [sum(column) for column in zip(*totals.values())]
            if totals
            else [0] * n
        )
        nodes = self._nodes
        for nid, node in nodes.items():
            node.received_total = received[nid]
            node.value_counts = Counter()
        # Fill each Counter from the nonzero entries only, value by
        # value, so its keys keep the order the values first arrived in.
        for value, counts in totals.items():
            for rec in compress(range(n), counts):
                if rec in nodes:
                    nodes[rec].value_counts[value] = counts[rec]


class FlatCpaEngine:
    """Shared flat state for a run of :class:`CpaNode` instances."""

    def __init__(
        self,
        nodes: Mapping[NodeId, CpaNode],
        n: int,
        source: NodeId,
        threshold: int,
    ) -> None:
        self.n = n
        self.source = source
        self.threshold = threshold  # t + 1 distinct endorsers
        self._nodes = nodes
        self.decided = bytearray(n)
        # 1 = never count here (see FlatThresholdEngine).
        self._skip = bytearray(b"\x01") * n
        # value -> distinct-endorser counts; value -> {rec * n + sender}.
        self._counts: dict[Value, list[int]] = {}
        self._seen: dict[Value, set[int]] = {}
        # id(batch) -> [total hits, batch] (see FlatThresholdEngine).
        self._batch_hits: dict[int, list] = {}
        self.newly_pending: list[NodeId] = []
        for nid, node in nodes.items():
            if node.decided:
                self.decided[nid] = 1
            else:
                self._skip[nid] = 0

    def distribute(self, batch, round_index: int, repeat: int = 1) -> None:
        entry = self._batch_hits.get(id(batch))
        if entry is not None and entry[1] is batch:
            entry[0] += repeat
        else:
            self._batch_hits[id(batch)] = [repeat, batch]
        skip = self._skip
        threshold = self.threshold
        source = self.source
        n = self.n
        data = MessageKind.DATA
        for sender, value, kind, _corrupted, receivers in batch.segments:
            if kind is not data:
                continue
            counts = self._counts.get(value)
            if counts is None:
                counts = self._counts[value] = [0] * n
                self._seen[value] = set()
            if sender == source:
                for rec in receivers:
                    if not skip[rec]:
                        self._decide(rec, value, round_index)
                continue
            seen = self._seen[value]
            for rec in receivers:
                if skip[rec]:
                    continue
                key = rec * n + sender
                if key in seen:
                    continue
                seen.add(key)
                c = counts[rec] + 1
                counts[rec] = c
                if c >= threshold:
                    self._decide(rec, value, round_index)

    def _decide(self, rec: NodeId, value: Value, round_index: int) -> None:
        node = self._nodes[rec]
        node._current_round = round_index
        node._decide(value)
        self.decided[rec] = 1
        self._skip[rec] = 1
        if node.has_pending():
            self.newly_pending.append(rec)

    def sync_nodes(self) -> None:
        """Rebuild each node's dict-of-sets endorsements from flat state."""
        n = self.n
        data = MessageKind.DATA
        received = [0] * n
        for hits, batch in self._batch_hits.values():
            for _sender, _value, kind, _corrupted, receivers in batch.segments:
                if kind is data:
                    for rec in receivers:
                        received[rec] += hits
        per_node: dict[NodeId, dict[Value, set[NodeId]]] = {}
        for value, seen in self._seen.items():
            for key in seen:
                rec, sender = divmod(key, n)
                per_node.setdefault(rec, {}).setdefault(value, set()).add(sender)
        for nid, node in self._nodes.items():
            node.received_total = received[nid]
            endorsements: defaultdict[Value, set[NodeId]] = defaultdict(set)
            for value, senders in per_node.get(nid, {}).items():
                endorsements[value] = senders
            node.endorsements = endorsements


def build_flat_engine(
    nodes: Mapping[NodeId, object],
    n: int,
    params: BroadcastParams,
    source: NodeId,
):
    """The flat engine matching a run's node population, or ``None``.

    Engines replicate the exact acceptance logic of one concrete node
    class, so eligibility is deliberately strict: every node must be an
    *exact* instance (subclasses may override ``on_value`` and silently
    diverge). Ineligible populations — reactive nodes, custom test
    nodes, mixed sets — simply run the per-node reference path.
    """
    if not nodes:
        return None
    classes = {type(node) for node in nodes.values()}
    if classes == {ThresholdNode}:
        return FlatThresholdEngine(nodes, n, params.threshold)
    if classes == {CpaNode}:
        return FlatCpaEngine(nodes, n, source, params.t + 1)
    return None

