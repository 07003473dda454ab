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
``resolve_slot_reference``). After a run, :meth:`_FlatEngine.attach_tally`
hands the engine's hit tallies (never the engine itself) to one shared
:class:`RunTally` and points every node at it. A node's
``value_counts`` / ``endorsements`` / ``received_total`` fills itself
from that tally on first read, so reports and tests observe exactly the
state the reference path would have produced, and a run whose report
reads no node accounting (most sweep points) never builds it.

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
from typing import Mapping

from repro.protocols.base import BroadcastParams, ThresholdNode
from repro.protocols.cpa import CpaNode
from repro.radio.messages import MessageKind
from repro.types import NodeId, Value


class RunTally:
    """One flat-engine run's per-node accounting, computed on first read.

    Holds the engine's hit tallies and nothing else: ``batch_hits`` maps
    ``id(batch)`` to ``[hits, batch]`` in the order the batches were
    first distributed; for CPA, ``seen`` is the packed distinct-endorser
    sets and ``endorsed`` the ``(receiver, value)`` pairs in the order
    each receiver first counted an endorser of that value. It never
    refers to the engine or to a node, so the nodes that point at it form
    no reference cycle and a finished report is freed by reference
    counting alone.

    The per-value totals are built once, by the first node that is read,
    and every later read indexes them. Key order is the reference path's:
    a node's values in the order they first reached it.
    """

    __slots__ = (
        "_n",
        "_batch_hits",
        "_seen",
        "_endorsed",
        "_totals",
        "_arrival",
        "_received",
        "_endorsers",
    )

    def __init__(
        self,
        n: int,
        batch_hits: dict[int, list],
        seen: dict[Value, set[int]] | None = None,
        endorsed: list[tuple[NodeId, Value]] | None = None,
    ) -> None:
        self._n = n
        self._batch_hits: dict[int, list] | None = batch_hits
        self._seen = seen
        self._endorsed = endorsed
        self._totals: dict[Value, list[int]] | None = None
        self._arrival: dict[Value, list[int]] = {}
        self._received: list[int] | None = None
        self._endorsers: dict[NodeId, dict[Value, set[NodeId]]] | None = None

    def _tally_hits(self) -> None:
        """Replay the hit counters over each batch's DATA segments.

        This reproduces exactly the ``received_total`` / ``value_counts``
        the per-delivery reference path accumulates (counts at unmanaged
        receivers are tallied but never read). Hits are summed per
        ``(value, receivers)`` first: a full segment is the grid's own
        neighbor tuple, so every batch it recurs in costs one dict
        update, and each distinct tuple is walked once. Each group also
        keeps the index of the first batch it occurs in: a receiver
        hears one delivery per batch, so the first group of a value that
        reaches a receiver dates that value's arrival there.
        """
        n = self._n
        data = MessageKind.DATA
        grouped: dict[Value, dict[tuple[NodeId, ...], list[int]]] = {}
        for index, (hits, batch) in enumerate(self._batch_hits.values()):
            for _sender, value, kind, _corrupted, receivers in batch.segments:
                if kind is not data:
                    continue
                by_receivers = grouped.get(value)
                if by_receivers is None:
                    by_receivers = grouped[value] = {}
                entry = by_receivers.get(receivers)
                if entry is None:
                    by_receivers[receivers] = [hits, index]
                else:
                    entry[0] += hits
        self._batch_hits = None  # the batches are no longer needed
        totals: dict[Value, list[int]] = {}
        for value, by_receivers in grouped.items():
            counts = totals[value] = [0] * n
            # Groups iterate in first-batch order, so a receiver's first
            # group is its earliest.
            arrival = self._arrival[value] = [0] * n
            for receivers, (hits, index) in by_receivers.items():
                for rec in receivers:
                    if not counts[rec]:
                        arrival[rec] = index
                    counts[rec] += hits
        self._totals = totals
        self._received = (
            [sum(column) for column in zip(*totals.values())]
            if totals
            else [0] * n
        )

    def received_total(self, nid: NodeId) -> int:
        if self._received is None:
            self._tally_hits()
        return self._received[nid]

    def value_counts(self, nid: NodeId) -> Counter[Value]:
        """``nid``'s copies per value, in the order the values reached it."""
        if self._totals is None:
            self._tally_hits()
        held = [
            (value, column[nid]) for value, column in self._totals.items()
            if column[nid]
        ]
        if len(held) > 1:
            arrival = self._arrival
            held.sort(key=lambda item: arrival[item[0]][nid])
        counts: Counter[Value] = Counter()
        for value, copies in held:
            counts[value] = copies
        return counts

    def endorsements(self, nid: NodeId) -> defaultdict[Value, set[NodeId]]:
        """``nid``'s distinct endorsers per value (CPA runs)."""
        endorsers = self._endorsers
        if endorsers is None:
            n = self._n
            endorsers = self._endorsers = {}
            for rec, value in self._endorsed:
                endorsers.setdefault(rec, {})[value] = set()
            for value, seen in self._seen.items():
                for key in seen:
                    rec, sender = divmod(key, n)
                    endorsers[rec][value].add(sender)
            self._seen = self._endorsed = None
        endorsements: defaultdict[Value, set[NodeId]] = defaultdict(set)
        endorsements.update(endorsers.get(nid, ()))
        return endorsements


class _FlatEngine:
    """What both engines share: the bitmaps, batch hits and decisions.

    Each engine keeps its own ``distribute``, the hot loop, which differs
    per acceptance rule.
    """

    #: CPA's distinct-endorser tallies; the threshold rule keeps none.
    _seen: dict[Value, set[int]] | None = None
    _endorsed: list[tuple[NodeId, Value]] | None = None

    def __init__(
        self,
        nodes: Mapping[NodeId, ThresholdNode | CpaNode],
        n: int,
        threshold: int,
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

    def _count_batch(self, batch, repeat: int) -> None:
        """Record ``repeat`` more hits of ``batch`` for the run's tally."""
        entry = self._batch_hits.get(id(batch))
        if entry is not None and entry[1] is batch:
            entry[0] += repeat
        else:
            self._batch_hits[id(batch)] = [repeat, batch]

    def attach_tally(self) -> None:
        """After the run: point every node at one :class:`RunTally`.

        Each node then fills its accounting fields from the tally on
        first read (``BroadcastNode._settle``); nothing is built here.
        """
        tally = RunTally(self.n, self._batch_hits, self._seen, self._endorsed)
        for node in self._nodes.values():
            node._tally = tally

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


class FlatThresholdEngine(_FlatEngine):
    """Shared flat state for a run of :class:`ThresholdNode` instances.

    The live loop maintains only what decisions depend on: per-value
    counts for *undecided* receivers. Everything else — per-node
    ``received_total`` and the final ``value_counts`` — is pure
    accounting, recomputed exactly by :class:`RunTally` from per-batch
    hit counters (each ``distribute`` call is one O(1) increment), so a
    decided node costs one bitmap read per delivery instead of three
    array updates.
    """

    def distribute(self, batch, round_index: int, repeat: int = 1) -> None:
        self._count_batch(batch, repeat)
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


class FlatCpaEngine(_FlatEngine):
    """Shared flat state for a run of :class:`CpaNode` instances."""

    def __init__(
        self,
        nodes: Mapping[NodeId, CpaNode],
        n: int,
        source: NodeId,
        threshold: int,
    ) -> None:
        super().__init__(nodes, n, threshold)  # t + 1 distinct endorsers
        self.source = source
        # value -> {rec * n + sender}, the distinct endorsers _counts counts.
        self._seen: dict[Value, set[int]] = {}
        # (rec, value) at each receiver's first endorser of a value, in
        # order: the key order of the node's endorsements.
        self._endorsed: list[tuple[NodeId, Value]] = []

    def distribute(self, batch, round_index: int, repeat: int = 1) -> None:
        self._count_batch(batch, repeat)
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
                if c == 1:
                    self._endorsed.append((rec, value))
                if c >= threshold:
                    self._decide(rec, value, round_index)


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

