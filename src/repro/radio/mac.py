"""Slotted-round MAC driver.

Drives the whole network through TDMA rounds: one round is one pass over
the ``(2r+1)^2`` slot classes; in its owned slot every honest node with
pending traffic (and remaining budget) performs one local broadcast. The
adversary is consulted at every slot and may inject Byzantine
transmissions anywhere, budget permitting.

The driver is deliberately independent of any concrete protocol or
adversary: both are structural interfaces (:class:`ProtocolNodeLike`,
:class:`AdversaryLike`) so the radio layer never imports the higher
layers.

Fast path
---------

``RoundDriver(fast=True)`` (the default) runs a batched loop that is
observably identical to the historical one (kept verbatim as
``_run_round_reference``; the scenario equivalence suite replays whole
runs through both) but skips work the slot-by-slot loop repeats
needlessly:

- **pending candidates** — when a flat protocol engine manages every
  node (so new pending sends can only appear at decide time), the
  per-round bucket build scans only nodes that might be pending instead
  of the whole grid, and budget-exhausted nodes drop out permanently;
- **occupied slots** — empty slot classes are skipped wholesale
  whenever the adversary cannot transmit spontaneously (it is out of
  budget, or its class declares ``spontaneous = False``);
- **budget-gated consultation** — once no Byzantine node can afford a
  message the adversary is never consulted again (its ``on_slot`` must
  be an effect-free ``[]`` in that state, which every bundled adversary
  satisfies);
- **sends as runs** — under a flat engine every node is an exact
  ``ThresholdNode`` or ``CpaNode``, whose sends are copies of one
  message that change only when it decides. So at the start of a slot
  each sender takes all ``min(pending, remaining budget,
  batch_per_slot)`` of its copies with one ``pop_sends`` and one ledger
  charge, and the slot's bursts become runs: the bursts between two
  consecutive distinct copy counts carry the same senders, handed to
  the loop as one list object with a burst count. Per-node runs
  (reactive and custom nodes) go through the same loop body one burst
  at a time;
- **burst dedup** — consecutive identical bursts within one slot
  (Figure 2's 2001-repetition source phase, relay drains) are
  distributed once with a multiplicity instead of once per burst. This
  defers delivery distribution within the slot, so it requires either
  an adversary whose class declares ``observe_stateless = True``
  (``on_slot``/``observe`` neither read nor record anything
  observable) or an adversary that is out of budget (then ``observe``
  still runs, once per deferred group with its multiplicity, at flush
  time);
- **quiet horizon** — an adversary may promise, through
  ``quiet_bursts()``, to let a number of further bursts identical to
  its last ``on_slot`` input through untouched (the threshold-guard
  jammer does until some receiver nears its threshold; the planned
  jammer, once it answers ``[]``, for good). Those repeats join the
  pending group without consulting ``on_slot``, under dedup or not;
  without dedup, at a horizon of 0, each burst is flushed before the
  next is sent. An inactive adversary is never consulted, so a whole
  run costs it one resolve and one flush.

Each slot of the batched loop resolves through
:meth:`~repro.radio.medium.Medium.resolve_slot`, whose slot memo hands
back the same batch object for an equal input, so repeated rounds
(relay plateaus, retransmission waves) cost one dict hit per slot.

The batched loop emits no per-delivery trace events, so a driver with
an enabled tracer must be built with ``fast=False``; anything else is a
:class:`~repro.errors.ConfigurationError`, never a silently thinner
trace. :func:`repro.scenario.run` runs every traced scenario at
``Tier.REFERENCE`` for this reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.network.grid import Grid
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.medium import DeliveryBatch, Medium
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from repro.radio.schedule import TdmaSchedule
from repro.sim.trace import NULL_TRACER, Tracer
from repro.types import NodeId, Value

#: Shared empty Byzantine-transmission list for unconsulted slots (never
#: mutated; the medium only reads its arguments).
_NO_BYZ: list[BadTransmission] = []


@runtime_checkable
class ProtocolNodeLike(Protocol):
    """What the driver needs from an honest protocol node.

    Optional class attributes the fast path exploits when present (see
    :class:`~repro.protocols.base.BroadcastNode`): ``sends_stable =
    True`` promises that no ``on_receive`` can add a pending send to a
    node without a decision, and ``round_end_noop = True`` declares
    ``on_round_end`` free of protocol logic. Both default to the
    conservative setting when absent.
    """

    def has_pending(self) -> bool:
        """Does the node currently want to transmit?"""

    def pop_send(self) -> tuple[Value, MessageKind]:
        """Dequeue the next message to transmit (called once per owned slot)."""

    def on_receive(self, sender: NodeId, value: Value, kind: MessageKind) -> None:
        """Handle one delivered message."""

    def on_round_end(self, round_index: int) -> None:
        """Hook run after every full round (timers, quiet windows)."""


@runtime_checkable
class AdversaryLike(Protocol):
    """What the driver needs from the adversary (a single coordinated mind).

    Contract the fast driver additionally relies on: whenever no
    Byzantine node has ledger budget left, ``on_slot`` must return ``[]``
    without observable side effects — the driver may then stop consulting
    it. Two optional class attributes refine the fast path further:
    ``spontaneous = False`` promises ``on_slot`` is an effect-free ``[]``
    whenever ``honest`` is empty (purely reactive adversaries), letting
    the driver skip empty slots; ``observe_stateless = True`` promises
    ``observe`` has no observable effect *and* ``on_slot`` /
    ``has_pending`` read no delivery- or protocol-node-derived state,
    enabling burst dedup with ``observe`` skipped. Both default to the
    conservative setting when absent.

    An optional method refines it: ``quiet_bursts()``, read right after
    an ``on_slot`` call, is how many further bursts with an equal
    ``honest`` list (same round and slot) that call is certain to answer
    with an effect-free ``[]``, given that each such burst is delivered
    jam-free; it must be 0 after a call that returned transmissions. The
    driver then skips ``on_slot`` for them and hands their deliveries to
    ``observe`` at once, with ``repeat`` set to their number (for an
    ``observe_stateless`` adversary, they join the deduplicated group).
    It is read with and without burst dedup. Absent, it counts as 0.

    Two more rules follow from taking sends as runs:

    - ``honest`` is read-only, and the same list object may come back
      for every burst of a run;
    - under a flat engine honest sends are popped and charged at the
      start of the slot, so ``on_slot`` must not read honest senders'
      ledger or pending state mid-slot (every bundled adversary reads
      only its bad nodes' budgets and decisions).
    """

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        """Byzantine transmissions for this slot (may be empty)."""

    def observe(self, deliveries: DeliveryBatch, repeat: int = 1) -> None:
        """Full omniscient view of what was just delivered, ``repeat`` times.

        Always a :class:`~repro.radio.medium.DeliveryBatch`, at every
        tier: :meth:`~repro.radio.medium.Medium.resolve_slot` returns one
        at both ``fast`` settings and the driver passes it on as is. Read
        per-transmission ``segments`` for bulk bookkeeping, or iterate it
        for receiver-ordered :class:`~repro.radio.medium.Delivery`
        records. ``repeat > 1`` stands for that many identical
        consecutive bursts of one slot, exactly as if each had been
        observed in turn.
        """

    def has_pending(self) -> bool:
        """Does the adversary still intend to transmit spontaneously?"""


@dataclass(frozen=True)
class RunLimits:
    """Bounds on a run.

    ``max_rounds`` is a hard stop; runs that hit it are reported as not
    quiescent (either the protocol livelocked or — in impossibility
    experiments — the run was intentionally capped after stalling).
    """

    max_rounds: int

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")


@dataclass
class RunStats:
    """Aggregate statistics of one driver run."""

    rounds: int = 0
    honest_transmissions: int = 0
    byzantine_transmissions: int = 0
    deliveries: int = 0
    corrupted_deliveries: int = 0
    quiescent: bool = False
    idle_rounds: int = 0
    per_kind_honest: dict[MessageKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MessageKind}
    )


class RoundDriver:
    """Runs the slotted network to quiescence or a round limit.

    ``medium``/``schedule`` accept pre-built (possibly process-warm)
    instances so sweeps can share one grid's CSR tables and delivery
    memo across points; by default each driver builds its own.
    ``engine`` is an optional flat protocol-state engine (see
    :mod:`repro.protocols.flat`) that distributes whole delivery batches
    instead of per-delivery ``on_receive`` calls. ``fast`` selects the
    batched round loop; ``fast=False`` runs the reference loop, which is
    the only one that traces, so an enabled ``tracer`` requires it.
    """

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        nodes: Mapping[NodeId, ProtocolNodeLike],
        adversary: AdversaryLike,
        ledger: BudgetLedger,
        *,
        batch_per_slot: int = 1,
        tracer: Tracer = NULL_TRACER,
        medium: Medium | None = None,
        schedule: TdmaSchedule | None = None,
        engine=None,
        fast: bool = True,
    ) -> None:
        missing = [nid for nid in table.good_ids if nid not in nodes]
        if missing:
            raise ConfigurationError(
                f"every honest node needs a protocol instance; missing {missing[:5]}"
            )
        if batch_per_slot < 1:
            raise ConfigurationError("batch_per_slot must be >= 1")
        if fast and tracer.enabled:
            raise ConfigurationError(
                "the batched round loop emits no per-delivery trace events; "
                "build a traced RoundDriver with fast=False"
            )
        self.grid = grid
        self.table = table
        self.nodes = nodes
        self.adversary = adversary
        self.ledger = ledger
        self.batch_per_slot = batch_per_slot
        self.schedule = schedule if schedule is not None else TdmaSchedule(grid)
        self.medium = medium if medium is not None else Medium(grid)
        self.engine = engine
        self.tracer = tracer
        self.fast = fast
        self.stats = RunStats()
        self._honest_ids = list(table.good_ids)
        self._bad_ids = list(table.bad_ids)
        # Reusable per-slot sender buckets: cleared and refilled every
        # round so steady-state rounds allocate no per-slot containers
        # (the medium's scratch buffers are likewise reused).
        self._slot_buckets: list[list[NodeId]] = [
            [] for _ in range(self.schedule.period)
        ]
        # -- fast-path state ------------------------------------------------
        adversary_cls = type(adversary)
        self._observe_stateless = bool(
            getattr(adversary_cls, "observe_stateless", False)
        )
        self._spontaneous = bool(getattr(adversary_cls, "spontaneous", True))
        self._quiet_bursts = getattr(adversary, "quiet_bursts", None)
        # Sticky: budgets are monotone, so once the adversary cannot send
        # it never can again. An adversary over no bad nodes at all stays
        # "active" so driver-level validation of rogue transmissions (a
        # test/debugging affordance) keeps firing.
        self._adversary_active = True
        # Identity-stable per-sender transmissions: repeated sends of one
        # (value, kind) reuse one frozen object, which makes burst dedup
        # and memo-key hashing cheap.
        self._tx_cache: list[Transmission | None] = [None] * grid.n
        # Honest DATA sends of the current round, added to
        # stats.per_kind_honest once per round: hashing an Enum key runs
        # Python code, so the per-sender count stays a plain integer.
        self._data_sent = 0
        self._occupied: list[int] = []
        node_classes = {type(node) for node in nodes.values()}
        # Stable-send nodes (BroadcastNode family) can never gain new
        # pending sends from a mid-slot receive; queue-based nodes can
        # (a jam delivered to an already-drained co-owner enqueues a
        # NACK), which constrains burst dedup and sender compaction
        # whenever the adversary is still able to transmit.
        self._sends_stable = bool(nodes) and all(
            getattr(cls, "sends_stable", False) for cls in node_classes
        )
        self._skip_round_end = engine is not None and all(
            getattr(cls, "round_end_noop", False) for cls in node_classes
        )
        # Pending-candidate tracking needs every pending transition to be
        # observable by the driver; only the flat engines guarantee that
        # (their node classes become pending exclusively at decide time,
        # which the engine reports via newly_pending).
        if engine is not None:
            self._scan: list[NodeId] | None = list(self._honest_ids)
            self._in_scan: bytearray | None = bytearray(grid.n)
            for nid in self._honest_ids:
                self._in_scan[nid] = 1
        else:
            self._scan = None
            self._in_scan = None

    # -- main loop ----------------------------------------------------------

    def run(self, limits: RunLimits) -> RunStats:
        for round_index in range(limits.max_rounds):
            if self.fast:
                transmitted = self._run_round_fast(round_index)
            else:
                transmitted = self._run_round_reference(round_index)
            self.stats.rounds = round_index + 1
            if not transmitted:
                self.stats.idle_rounds += 1
            if self._quiescent():
                self.stats.quiescent = True
                break
            if not transmitted and not self._any_honest_active():
                # The adversary claims pending work but produced nothing for
                # a whole round while honest nodes are done: treat as done
                # to avoid spinning (a liar with budget but no trigger).
                self.stats.quiescent = True
                break
        return self.stats

    # -- fast round loop ----------------------------------------------------

    def _run_round_fast(self, round_index: int) -> bool:
        ledger = self.ledger
        nodes = self.nodes
        if self._adversary_active and self._bad_ids:
            if not any(ledger.can_send(bad) for bad in self._bad_ids):
                self._adversary_active = False
        active = self._adversary_active

        # Build the per-slot sender buckets for this round.
        by_slot = self._slot_buckets
        occupied = self._occupied
        for slot in occupied:
            by_slot[slot].clear()
        occupied.clear()
        slot_of = self.schedule._slot_of
        scan = self._scan
        if scan is not None:
            in_scan = self._in_scan
            write = 0
            for nid in scan:
                node = nodes[nid]
                if node.has_pending():
                    if ledger.can_send(nid):
                        slot = slot_of[nid]
                        bucket = by_slot[slot]
                        if not bucket:
                            occupied.append(slot)
                        bucket.append(nid)
                        scan[write] = nid
                        write += 1
                    else:
                        in_scan[nid] = 0  # budget gone forever
                else:
                    in_scan[nid] = 0  # re-added when it becomes pending
            del scan[write:]
        else:
            for nid in self._honest_ids:
                node = nodes[nid]
                if node.has_pending() and ledger.can_send(nid):
                    slot = slot_of[nid]
                    bucket = by_slot[slot]
                    if not bucket:
                        occupied.append(slot)
                    bucket.append(nid)
            scan = None  # already ascending: _honest_ids order
        occupied.sort()
        if scan is not None:
            # The scan list holds pending-arrival order, but the
            # reference loop fills buckets in ascending id order — and
            # order-sensitive adversaries observe it: SpoofingJammer
            # allocates its per-slot jammers to victims in list order,
            # so an unsorted bucket jams different victims and forges
            # different endorsements than the reference run.
            for slot in occupied:
                bucket = by_slot[slot]
                if len(bucket) > 1:
                    bucket.sort()

        consult_empty = active and self._spontaneous
        slots = range(self.schedule.period) if consult_empty else occupied
        return self._run_slot_loop(round_index, slots, active)

    def _run_slot_loop(self, round_index: int, slots, active: bool) -> bool:
        """One round, slot by slot; each slot's bursts arrive as runs.

        A run ``(honest, count)`` is ``count`` consecutive bursts with
        the same honest transmissions (:meth:`_engine_runs`), or a single
        burst (:meth:`_node_runs`, ``count = 1``); this one body takes
        both.
        """
        adversary = self.adversary
        by_slot = self._slot_buckets
        # Burst dedup defers delivery distribution to the end of a
        # burst group, and sender compaction stops re-checking a slot
        # owner that ran dry. Both are safe only when nothing can act on
        # mid-slot deliveries: the adversary must not look (it is
        # inactive, or observe_stateless by contract) AND no bucketed
        # sender may *become* pending from a receive (sends are
        # stable, or there is a single burst per slot, or no
        # Byzantine transmission can reach a drained co-owner because
        # the adversary is inactive). With an inactive adversary,
        # observe still sees each deferred group, with its multiplicity,
        # at flush time.
        #
        # An adversary that does look sees every burst's deliveries
        # before its next on_slot, except for repeats inside the quiet
        # horizon it declares: those need no on_slot and are coalesced,
        # their distribution deferred past the next burst's sends. That
        # holds for queue-based nodes too: a horizon follows only an
        # on_slot that answered [], so the group is jam-free, and an
        # honest burst reaches no owner of its own slot (co-owners are
        # more than r apart), so no sender of the slot hears it.
        single_burst = self.batch_per_slot == 1
        senders_settled = self._sends_stable or single_burst or not active
        dedup = senders_settled and (self._observe_stateless or not active)
        quiet_bursts = self._quiet_bursts if not single_burst else None
        runs_of = self._engine_runs if self.engine is not None else self._node_runs
        byz_total = 0
        transmitted = False
        for slot in slots:
            prev_honest: list[Transmission] | None = None
            prev_byz: list[BadTransmission] | None = None
            pending_batch = None
            multiplicity = 0
            quiet = 0
            for honest, count in runs_of(by_slot[slot], senders_settled):
                while count:
                    if quiet and honest == prev_honest:
                        # Inside the quiet horizon: the adversary lets
                        # these repeats through, so they join the group.
                        step = quiet if quiet < count else count
                        quiet -= step
                        multiplicity += step
                        count -= step
                        continue
                    if active:
                        if pending_batch is not None and not dedup:
                            self._flush(pending_batch, multiplicity, round_index)
                            pending_batch = None
                        byz_txs = adversary.on_slot(round_index, slot, honest)
                        for tx in byz_txs:
                            if not self.table.is_bad(tx.sender):
                                raise ConfigurationError(
                                    f"adversary transmitted from honest node {tx.sender}"
                                )
                            self.ledger.charge(tx.sender)
                        if quiet_bursts is not None:
                            quiet = quiet_bursts()
                        step = 1
                    else:
                        # Nobody looks: the whole run is one group.
                        byz_txs = _NO_BYZ
                        step = count
                    if not honest and not byz_txs:
                        break
                    transmitted = True
                    byz_total += len(byz_txs)
                    count -= step

                    if pending_batch is not None and (
                        honest == prev_honest and byz_txs == prev_byz
                    ):
                        multiplicity += step
                        continue
                    if pending_batch is not None:
                        self._flush(pending_batch, multiplicity, round_index)
                    pending_batch = self.medium.resolve_slot(honest, byz_txs)
                    prev_honest = honest
                    prev_byz = byz_txs
                    multiplicity = step
                    if not (dedup or quiet):
                        self._flush(pending_batch, step, round_index)
                        pending_batch = None
                if count:
                    break  # a silent burst ends the slot
            if pending_batch is not None:
                self._flush(pending_batch, multiplicity, round_index)

        self.stats.byzantine_transmissions += byz_total
        if self._data_sent:
            self.stats.per_kind_honest[MessageKind.DATA] += self._data_sent
            self._data_sent = 0
        if not self._skip_round_end:
            nodes = self.nodes
            for nid in self._honest_ids:
                nodes[nid].on_round_end(round_index)
        return transmitted

    def _engine_runs(
        self, senders: list[NodeId], _settled: bool
    ) -> list[tuple[list[Transmission], int]]:
        """One slot's bursts as runs, taking every honest send up front.

        Under a flat engine every node is an exact ``ThresholdNode`` or
        ``CpaNode``: its sends are copies of one message, and neither
        the message nor the count changes before it decides, which a
        bucketed sender already has. So sender ``i`` sends ``k_i =
        min(pending, remaining budget, batch_per_slot)`` copies, taken
        with one ``pop_sends`` and charged with one ``charge``. With the
        distinct ``k`` ascending, bursts ``[k_(j-1), k_j)`` all carry
        the senders whose ``k >= k_j``, in ascending id order, as one
        list object. Bursts after the last send carry no honest
        transmission and go to the adversary alone.
        """
        batch = self.batch_per_slot
        ledger = self.ledger
        nodes = self.nodes
        tx_cache = self._tx_cache
        stats = self.stats
        per_kind = stats.per_kind_honest
        data = MessageKind.DATA
        data_sent = 0
        txs: list[Transmission] = []
        counts: list[int] = []
        for nid in senders:
            room = ledger.remaining(nid)
            count, (value, kind) = nodes[nid].pop_sends(
                batch if room is None or room > batch else room
            )
            ledger.charge(nid, count)
            if kind is data:
                data_sent += count
            else:
                per_kind[kind] += count
            tx = tx_cache[nid]
            if tx is None or tx.value != value or tx.kind is not kind:
                tx = Transmission(nid, value, kind)
                tx_cache[nid] = tx
            txs.append(tx)
            counts.append(count)
        stats.honest_transmissions += sum(counts)
        self._data_sent += data_sent
        longest = max(counts, default=0)
        if counts and min(counts) == longest:
            runs = [(txs, longest)]
        else:
            runs = []
            done = 0
            for least in sorted(set(counts)):
                runs.append(
                    ([tx for tx, k in zip(txs, counts) if k >= least], least - done)
                )
                done = least
        if longest < batch:
            runs.append(([], batch - longest))
        return runs

    def _node_runs(self, senders: list[NodeId], settled: bool):
        """One slot's bursts one at a time, as runs ``(honest, 1)``.

        Each burst asks every owner for one send, so a queue-based node
        that a mid-slot receive re-armed sends again. When ``settled``,
        owners that fail the pending/budget check are compacted away for
        the slot's remaining bursts: both conditions are then monotone
        within a slot (budgets only shrink, and no receive can re-arm a
        drained owner).
        """
        ledger = self.ledger
        nodes = self.nodes
        tx_cache = self._tx_cache
        stats = self.stats
        per_kind = stats.per_kind_honest
        data = MessageKind.DATA
        for _burst in range(self.batch_per_slot):
            honest: list[Transmission] = []
            data_sent = 0
            write = 0
            for nid in senders:
                node = nodes[nid]
                if not node.has_pending() or not ledger.can_send(nid):
                    continue
                value, kind = node.pop_send()
                ledger.charge(nid)
                if kind is data:
                    data_sent += 1
                else:
                    per_kind[kind] += 1
                tx = tx_cache[nid]
                if tx is None or tx.value != value or tx.kind is not kind:
                    tx = Transmission(nid, value, kind)
                    tx_cache[nid] = tx
                honest.append(tx)
                if settled:
                    senders[write] = nid
                    write += 1
            if settled:
                del senders[write:]
            stats.honest_transmissions += len(honest)
            self._data_sent += data_sent
            yield honest, 1

    def _flush(
        self, batch: DeliveryBatch, multiplicity: int, round_index: int
    ) -> None:
        """Distribute one resolved batch ``multiplicity`` times at once."""
        stats = self.stats
        stats.deliveries += batch.size * multiplicity
        stats.corrupted_deliveries += batch.corrupted_count * multiplicity
        engine = self.engine
        if engine is not None:
            engine.distribute(batch, round_index, multiplicity)
            newly = engine.newly_pending
            if newly:
                scan = self._scan
                in_scan = self._in_scan
                for nid in newly:
                    if not in_scan[nid]:
                        in_scan[nid] = 1
                        scan.append(nid)
                newly.clear()
        else:
            # A receiver hears at most one delivery per slot, so the
            # order across segments cannot matter.
            get_node = self.nodes.get
            for _ in range(multiplicity):
                for sender, value, kind, _, receivers in batch.segments:
                    for receiver in receivers:
                        node = get_node(receiver)
                        if node is not None:  # honest receiver
                            node.on_receive(sender, value, kind)
        if not self._observe_stateless:
            self.adversary.observe(batch, multiplicity)

    # -- reference round loop ------------------------------------------------

    def _run_round_reference(self, round_index: int) -> bool:
        """The historical slot-by-slot loop (the fast path's referee)."""
        schedule = self.schedule
        ledger = self.ledger
        by_slot = self._slot_buckets
        for bucket in by_slot:
            bucket.clear()
        for nid in self._honest_ids:
            node = self.nodes[nid]
            if node.has_pending() and ledger.can_send(nid):
                by_slot[schedule.slot_of(nid)].append(nid)

        transmitted = False
        for slot in range(schedule.period):
            # `batch_per_slot > 1` stretches each slot into consecutive
            # sub-slots in which the slot's owners drain several pending
            # messages back-to-back. Every sub-slot is a full medium
            # round (adversary consulted, budgets charged per message),
            # so all counting arguments are untouched — only wall-clock
            # round counts compress. Used by heavy experiments such as
            # Figure 2's 2001-repetition source phase.
            for _burst in range(self.batch_per_slot):
                honest_txs: list[Transmission] = []
                for nid in by_slot[slot]:  # at most a few per class
                    node = self.nodes[nid]
                    if not node.has_pending() or not ledger.can_send(nid):
                        continue
                    value, kind = node.pop_send()
                    ledger.charge(nid)
                    honest_txs.append(Transmission(nid, value, kind))
                    self.stats.per_kind_honest[kind] += 1

                byz_txs = self.adversary.on_slot(round_index, slot, honest_txs)
                for tx in byz_txs:
                    if not self.table.is_bad(tx.sender):
                        raise ConfigurationError(
                            f"adversary transmitted from honest node {tx.sender}"
                        )
                    ledger.charge(tx.sender)

                if not honest_txs and not byz_txs:
                    break
                transmitted = True
                self.stats.honest_transmissions += len(honest_txs)
                self.stats.byzantine_transmissions += len(byz_txs)

                deliveries = self.medium.resolve_slot(honest_txs, byz_txs)
                self._distribute(deliveries, round_index, slot)

        for nid in self._honest_ids:
            self.nodes[nid].on_round_end(round_index)
        return transmitted

    def _distribute(
        self, deliveries: DeliveryBatch, round_index: int, slot: int
    ) -> None:
        trace_on = self.tracer.enabled
        for delivery in deliveries:
            self.stats.deliveries += 1
            if delivery.corrupted:
                self.stats.corrupted_deliveries += 1
            if trace_on:
                self.tracer.emit(
                    "radio.deliver",
                    (round_index, slot),
                    receiver=delivery.receiver,
                    sender=delivery.sender,
                    value=delivery.value,
                    corrupted=delivery.corrupted,
                )
            node = self.nodes.get(delivery.receiver)
            if node is not None:  # honest receiver
                node.on_receive(delivery.sender, delivery.value, delivery.kind)
        self.adversary.observe(deliveries)

    # -- termination --------------------------------------------------------

    def _any_honest_active(self) -> bool:
        ledger = self.ledger
        nodes = self.nodes
        scan = self._scan
        candidates = scan if scan is not None else self._honest_ids
        return any(
            nodes[nid].has_pending() and ledger.can_send(nid)
            for nid in candidates
        )

    def _quiescent(self) -> bool:
        return not self._any_honest_active() and not self.adversary.has_pending()

