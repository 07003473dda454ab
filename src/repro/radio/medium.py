"""Shared radio medium: per-slot delivery resolution.

Semantics (paper §1.2):

- a local broadcast reaches every node within L∞ distance ``r`` of the
  sender;
- if a receiver is in range of two or more concurrent transmissions, the
  result at that receiver is adversary-controlled: a wrong message or no
  message at all, with no indication that anything abnormal happened;
- honest nodes follow the TDMA schedule, so a collision implies at least
  one Byzantine transmission is involved.

The medium is stateless semantically but keeps *reusable scratch
buffers*; :class:`~repro.radio.mac.RoundDriver` feeds it the
transmissions of one slot and distributes the resulting deliveries.

Fast path
---------

``resolve_slot`` is the hottest call in the simulator (every slot of
every run lands here), so it works per *transmission*, not per receiver:
a resolved slot is a :class:`DeliveryBatch` holding one **segment** per
outcome,

    ``(sender, value, kind, corrupted, receivers)``

where ``receivers`` is the ascending tuple of receivers that heard that
outcome. A segment that reaches every neighbor of its sender reuses the
grid's own :meth:`~repro.network.grid.Grid.neighbors_sorted` tuple (the
same object), so consumers can test ``receivers is
grid.neighbors_sorted(sender)`` and use per-sender caches. Each receiver
appears in at most one segment of a batch.

- slots are memoized whole: transmissions are frozen (hashable)
  dataclasses, so ``(tuple(honest), tuple(byzantine))`` exactly keys
  the resulting batch. Some traffic repeats exactly (E2's source repeats
  one slot 2001 times against the same planned jams), but across the 13
  experiments about 70% of calls miss the memo, and the misses carry
  nearly all of the resolver's time, so the miss path is what must be
  cheap;
- **no-collision shortcut**: a lone transmission (honest or Byzantine),
  or an honest-only slot whose senders are strictly ascending and share
  one TDMA class ``(x mod 2r+1, y mod 2r+1)``, cannot collide anywhere.
  Distinct same-class senders are at least ``2r+1`` apart (torus sides
  are multiples of ``2r+1``, see :class:`~repro.network.grid.GridSpec`),
  so no receiver is within ``r`` of two of them and no sender hears
  another. Such a slot is one full segment per sender, built in
  O(#transmissions) with no scratch walk. Anything else — duplicate or
  out-of-order senders, mixed classes, any Byzantine company — takes the
  walk, which is where honest collisions raise;
- every other slot walks each sender's sorted neighbors over dense
  id-indexed scratch buffers (a ``bytearray`` heard-count, a
  ``bytearray`` transmitting mask, the owning transmission of a
  receiver that hears one, the controlling Byzantine sender per
  receiver, and a touched-receiver list). It emits one segment per
  transmission over the receivers that heard it alone, and one
  ``corrupted=True`` segment per ``(apparent sender, value, kind)`` over
  the collision receivers.

Per-delivery consumers (tests, the reference round loop) still see a
sequence of :class:`Delivery` records: iterating, indexing, ``==`` and
``repr`` go through a **materialized view**, one :class:`Delivery` per
receiver, built from the segments on first use and cached as a tuple.
It is ordered by receiver and equals ``resolve_slot_reference``'s list.
No fast-path consumer builds one.

The historical dict-based implementation is preserved as
``resolve_slot_reference``; the determinism suite asserts both produce
byte-for-byte identical delivery lists. ``resolve_slot`` returns a
:class:`DeliveryBatch` at both ``fast`` settings: ``fast=False`` wraps
the reference list, and an empty slot is one shared empty batch.

Batches are immutable (segments and views are tuples), and memo hits
return the *same cached batch object* rather than a fresh copy, which
lets the round driver and the flat protocol engines key per-batch
accounting by ``id(batch)`` while holding the batch alive. Rounds are
not memoized whole: a repeated round (a relay plateau, a retransmission
wave) costs one slot-memo hit per occupied slot.

``spoof_sender`` hygiene: an apparent sender outside the grid raises
:class:`~repro.errors.ConfigurationError` (an adversary bug, not an
attack), and a transmission spoofing the *receiver's own id* falls back
to the controller's real id — a node cannot appear to hear itself.
Both paths enforce the same rule.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigurationError, ScheduleConflictError
from repro.network.grid import Grid
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from repro.types import NodeId, Value

#: Slot-memo bound: far above any real run's distinct slot-pattern
#: population, but keeps a pathological transmission stream from growing
#: the memo without bound (the memo is simply dropped when full).
_SLOT_MEMO_LIMIT = 2048


class Delivery(NamedTuple):
    """One value delivered to one receiver in one slot.

    ``corrupted`` marks deliveries manufactured through a collision — it
    is *simulation metadata* for metrics and adversary bookkeeping; the
    receiving protocol node never sees it (receivers cannot detect
    collisions in this model).

    An immutable tuple; a delivery compares equal to the plain 5-tuple
    of its fields.
    """

    receiver: NodeId
    sender: NodeId
    value: Value
    kind: MessageKind
    corrupted: bool = False


#: One transmission's outcome in a resolved slot: ``(sender, value,
#: kind, corrupted, receivers)`` with ``receivers`` ascending (see the
#: module docstring). Consumers unpack the plain tuple.
Segment = tuple[NodeId, Value, MessageKind, bool, tuple[NodeId, ...]]


class BatchPlanCache:
    """``id(batch) -> plan`` memo with an identity guard.

    Delivery batches are identity-stable (memo hits return the same
    object), so a consumer that precomputes a per-batch *plan* can key it
    by ``id(batch)``. Each entry holds the batch itself, pinning its id
    for the entry's lifetime; the identity recheck guards recycled
    addresses after a clear. Bounded: dropped wholesale when full.

    No program code calls this since the consumers work per segment;
    ``perfbench`` still wraps ``BatchPlanCache.get`` and clears
    ``_PLAN_CACHES``, so both stay until the benchmark stops naming them.
    """

    __slots__ = ("_plans", "limit")

    def __init__(self, limit: int = 4096) -> None:
        self.limit = limit
        self._plans: dict[int, tuple] = {}

    def get(self, batch):
        entry = self._plans.get(id(batch))
        if entry is not None and entry[1] is batch:
            return entry[0]
        return None

    def put(self, batch, plan) -> None:
        if len(self._plans) >= self.limit:
            self._plans.clear()
        self._plans[id(batch)] = (plan, batch)


#: Plan caches keyed by what the plan's content depends on. Nothing
#: fills it; ``perfbench`` clears it between passes.
_PLAN_CACHES: dict[tuple, BatchPlanCache] = {}


def _materialize(segments: tuple[Segment, ...]) -> tuple[Delivery, ...]:
    """The receiver-ordered :class:`Delivery` view of a batch's segments."""
    out = [
        Delivery(receiver, sender, value, kind, corrupted)
        for sender, value, kind, corrupted, receivers in segments
        for receiver in receivers
    ]
    if len(segments) > 1:
        out.sort()  # receivers are unique, so this orders by receiver
    return tuple(out)


class DeliveryBatch:
    """One resolved slot: per-transmission segments plus aggregates.

    :attr:`segments` is a tuple of :data:`Segment` (see the module
    docstring); ``size`` (also ``len``) and ``corrupted_count`` count
    deliveries, so the driver's stats update is O(1). Iteration, indexing
    and ``==`` go through :attr:`deliveries`, the receiver-ordered
    :class:`Delivery` view, built on first use and cached. Memo hits hand
    out the same batch object every time, which makes ``id(batch)`` a
    stable key for per-batch accounting **as long as the keeper also
    holds a strong reference to the batch** (see the flat protocol
    engines).
    """

    __slots__ = ("_segments", "size", "corrupted_count", "_view")

    def __init__(self, segments: tuple[Segment, ...]) -> None:
        size = corrupted = 0
        for segment in segments:
            count = len(segment[4])
            size += count
            if segment[3]:
                corrupted += count
        self._segments: tuple[Segment, ...] | None = segments
        self.size = size
        self.corrupted_count = corrupted
        self._view: tuple[Delivery, ...] | None = None

    @classmethod
    def of(cls, deliveries: list[Delivery]) -> DeliveryBatch:
        """A batch over a plain receiver-sorted delivery list.

        Wraps the reference resolver's output: the list is the view, and
        the segments — one per delivery — are built only if a consumer
        asks for them, so a reference run pays for them only under an
        adversary that reads them.
        """
        batch = cls.__new__(cls)
        batch._view = view = tuple(deliveries)
        batch._segments = None
        batch.size = len(view)
        batch.corrupted_count = sum([1 for delivery in view if delivery[4]])
        return batch

    @property
    def segments(self) -> tuple[Segment, ...]:
        """One :data:`Segment` per outcome (per delivery when wrapped)."""
        segments = self._segments
        if segments is None:
            segments = self._segments = tuple([
                (sender, value, kind, corrupted, (receiver,))
                for receiver, sender, value, kind, corrupted in self.deliveries
            ])
        return segments

    @property
    def deliveries(self) -> tuple[Delivery, ...]:
        """The receiver-ordered :class:`Delivery` view (built once)."""
        view = self._view
        if view is None:
            view = self._view = _materialize(self._segments)
        return view

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.deliveries)

    def __getitem__(self, index):
        return self.deliveries[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, DeliveryBatch):
            return self is other or self.deliveries == other.deliveries
        if isinstance(other, list):
            return self.size == len(other) and self.deliveries == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"DeliveryBatch({list(self.deliveries)!r})"


#: What every empty slot resolves to (immutable, so one is shared).
_EMPTY_BATCH = DeliveryBatch(())


def _apparent_sender(
    controller: BadTransmission, receiver: NodeId, n: int
) -> NodeId:
    """The sender id a collision victim perceives, validated/clamped.

    Out-of-grid spoof ids are a configuration bug; spoofing the receiver
    itself clamps to the controller's real id (see module docstring).
    """
    spoof = controller.spoof_sender
    if spoof is None:
        return controller.sender
    if not 0 <= spoof < n:
        raise ConfigurationError(
            f"spoof_sender {spoof} from Byzantine node {controller.sender} "
            f"is outside the grid (n={n})"
        )
    if spoof == receiver:
        return controller.sender
    return spoof


class Medium:
    """Resolves concurrent transmissions into per-receiver deliveries.

    ``fast=False`` routes every slot through :meth:`resolve_slot_reference`.
    """

    def __init__(self, grid: Grid, *, fast: bool = True) -> None:
        self.grid = grid
        self.fast = fast
        # Reusable flat scratch (slots that may collide), allocated on the
        # first such slot: vectorized-kernel runs (and collision-free
        # workloads) never resolve one, and five O(n) buffers are real
        # money on a 10^6-node grid. All buffers are restored to their
        # idle state after every call — including on the
        # ScheduleConflictError path — via the touched list.
        self._scratch_ready = False
        self._transmitting: bytearray
        self._heard: bytearray
        self._owner: list[int]
        self._ctrl_sender: list[int]
        self._ctrl_idx: list[int]
        self._touched: list[NodeId]
        # TDMA class side (2r+1), for the no-collision shortcut.
        self._side = 2 * grid.r + 1
        # (tuple(honest), tuple(byzantine)) -> DeliveryBatch. Transmissions
        # are frozen dataclasses, so the key captures the slot's entire
        # input, including list order (which breaks equal-id Byzantine
        # ties). Hits return the cached batch itself (no copy).
        self._slot_memo: dict[tuple, DeliveryBatch] = {}

    def resolve_slot(
        self,
        honest: list[Transmission],
        byzantine: list[BadTransmission],
    ) -> DeliveryBatch:
        """Compute all deliveries for one slot.

        Honest transmissions in the same slot must be mutually
        non-interfering (the TDMA coloring guarantees it); a violation
        raises :class:`ScheduleConflictError` because it indicates a bug,
        not an attack. Returns a :class:`DeliveryBatch` at both ``fast``
        settings (``fast=False`` wraps the reference resolver's list).
        """
        if not honest and not byzantine:
            return _EMPTY_BATCH
        if not self.fast:
            return DeliveryBatch.of(self.resolve_slot_reference(honest, byzantine))
        key = (tuple(honest), tuple(byzantine))
        cached = self._slot_memo.get(key)
        if cached is not None:
            return cached
        if not byzantine and self._collision_free(honest):
            batch = self._full_segments(honest)
        elif not honest and len(byzantine) == 1:
            # A lone Byzantine message is a plain lie from its true
            # sender: spoof_sender only acts at collisions.
            batch = self._full_segments(byzantine)
        else:
            batch = self._resolve_flat(honest, byzantine)
        if len(self._slot_memo) >= _SLOT_MEMO_LIMIT:
            self._slot_memo.clear()
        self._slot_memo[key] = batch
        return batch

    def round_memo_get(self, signature: tuple) -> None:
        """Always ``None``: rounds are not memoized whole.

        No program code calls this. ``perfbench`` still wraps it by name
        to count ``radio.round_memo``, so it stays (like
        :class:`BatchPlanCache`) until the benchmark stops naming it.
        """
        return None

    # -- fast path ---------------------------------------------------------

    def _collision_free(self, honest: list[Transmission]) -> bool:
        """Strictly ascending senders of one TDMA class (see module doc)."""
        width = self.grid.width
        side = self._side
        first = honest[0].sender
        column = first % width % side
        row = first // width % side
        previous = first
        for tx in honest[1:]:
            sender = tx.sender
            if (
                sender <= previous
                or sender % width % side != column
                or sender // width % side != row
            ):
                return False
            previous = sender
        return True

    def _full_segments(self, txs) -> DeliveryBatch:
        """One full segment per transmission (no receiver hears two)."""
        neighbors = self.grid._neighbors_sorted
        return DeliveryBatch(
            tuple([
                (tx.sender, tx.value, tx.kind, False, neighbors[tx.sender])
                for tx in txs
            ])
        )

    def _ensure_scratch(self) -> None:
        n = self.grid.n
        self._transmitting = bytearray(n)
        self._heard = bytearray(n)  # 0, 1, or 2 meaning "two or more"
        self._owner = [0] * n  # transmission index while heard == 1
        self._ctrl_sender = [n] * n  # min Byzantine sender heard (n = none)
        self._ctrl_idx = [0] * n  # its index into the byzantine list
        self._touched = []
        self._scratch_ready = True

    def _resolve_flat(
        self,
        honest: list[Transmission],
        byzantine: list[BadTransmission],
    ) -> DeliveryBatch:
        if not self._scratch_ready:
            self._ensure_scratch()
        grid = self.grid
        n = grid.n
        neighbors = grid._neighbors_sorted
        transmitting = self._transmitting
        heard = self._heard
        owner = self._owner
        ctrl_sender = self._ctrl_sender
        ctrl_idx = self._ctrl_idx
        touched = self._touched

        # Radios are half-duplex: a node transmitting in this slot cannot
        # receive. (Only relevant when two Byzantine nodes are adjacent —
        # honest same-slot senders are out of range by TDMA construction.)
        for tx in honest:
            transmitting[tx.sender] = 1
        for tx in byzantine:
            transmitting[tx.sender] = 1

        try:
            # Transmission index: honest ones first, then Byzantine ones.
            for index, tx in enumerate(honest):
                for receiver in neighbors[tx.sender]:
                    if transmitting[receiver]:
                        continue
                    count = heard[receiver]
                    if count == 0:
                        heard[receiver] = 1
                        owner[receiver] = index
                        touched.append(receiver)
                    elif count == 1:
                        heard[receiver] = 2
            offset = len(honest)
            for bindex, tx in enumerate(byzantine):
                sender = tx.sender
                for receiver in neighbors[sender]:
                    if transmitting[receiver]:
                        continue
                    count = heard[receiver]
                    if count == 0:
                        heard[receiver] = 1
                        owner[receiver] = offset + bindex
                        touched.append(receiver)
                    elif count == 1:
                        heard[receiver] = 2
                    # Deterministic tie-break mirror of the reference
                    # path: the lowest-id Byzantine transmitter heard
                    # (earliest in the list on equal ids) controls the
                    # collision outcome at this receiver.
                    if sender < ctrl_sender[receiver]:
                        ctrl_sender[receiver] = sender
                        ctrl_idx[receiver] = bindex

            touched.sort()
            alone: list[list[NodeId]] = [[] for _ in range(offset + len(byzantine))]
            collided: dict[tuple, list[NodeId]] = {}
            for receiver in touched:
                if heard[receiver] == 1:
                    alone[owner[receiver]].append(receiver)
                    continue
                if ctrl_sender[receiver] == n:
                    senders = [
                        grid.coord_of(tx.sender)
                        for tx in honest
                        if grid.are_neighbors(tx.sender, receiver)
                    ]
                    raise ScheduleConflictError(
                        f"honest transmissions collided at receiver "
                        f"{grid.coord_of(receiver)}: senders {senders}"
                    )
                # The adversary owns the collision outcome at this receiver.
                controller = byzantine[ctrl_idx[receiver]]
                if controller.silence_at_collision:
                    continue  # receiver hears nothing and notices nothing
                outcome = (
                    _apparent_sender(controller, receiver, n),
                    controller.value,
                    controller.kind,
                )
                group = collided.get(outcome)
                if group is None:
                    collided[outcome] = [receiver]
                else:
                    group.append(receiver)
        finally:
            for tx in honest:
                transmitting[tx.sender] = 0
            for tx in byzantine:
                transmitting[tx.sender] = 0
            for receiver in touched:
                heard[receiver] = 0
                ctrl_sender[receiver] = n
            touched.clear()

        segments: list[Segment] = []
        for txs, base in ((honest, 0), (byzantine, offset)):
            for index, tx in enumerate(txs, base):
                receivers = alone[index]
                if not receivers:
                    continue
                full = neighbors[tx.sender]
                segments.append((
                    tx.sender,
                    tx.value,
                    tx.kind,
                    False,
                    full if len(receivers) == len(full) else tuple(receivers),
                ))
        for (sender, value, kind), receivers in collided.items():
            segments.append((sender, value, kind, True, tuple(receivers)))
        return DeliveryBatch(tuple(segments))

    # -- reference path ----------------------------------------------------

    def resolve_slot_reference(
        self,
        honest: list[Transmission],
        byzantine: list[BadTransmission],
    ) -> list[Delivery]:
        """Historical dict-based resolver (the fast path's referee).

        Kept verbatim (plus the shared ``spoof_sender`` hygiene) so the
        determinism suite and the fuzz runner can compare the two
        implementations transmission-for-transmission.
        """
        if not honest and not byzantine:
            return []

        transmitting = {tx.sender for tx in honest} | {tx.sender for tx in byzantine}

        heard: dict[NodeId, list[Transmission | BadTransmission]] = {}
        for tx in honest:
            for receiver in self.grid.neighbors(tx.sender):
                if receiver not in transmitting:
                    heard.setdefault(receiver, []).append(tx)
        for tx in byzantine:
            for receiver in self.grid.neighbors(tx.sender):
                if receiver not in transmitting:
                    heard.setdefault(receiver, []).append(tx)

        deliveries: list[Delivery] = []
        for receiver, txs in heard.items():
            if len(txs) == 1:
                tx = txs[0]
                deliveries.append(
                    Delivery(receiver, tx.sender, tx.value, tx.kind, corrupted=False)
                )
                continue
            bad_txs = [tx for tx in txs if isinstance(tx, BadTransmission)]
            if not bad_txs:
                senders = [self.grid.coord_of(tx.sender) for tx in txs]
                raise ScheduleConflictError(
                    f"honest transmissions collided at receiver "
                    f"{self.grid.coord_of(receiver)}: senders {senders}"
                )
            # The adversary owns the collision outcome at this receiver.
            # Deterministic tie-break: the lowest-id Byzantine transmitter
            # involved dictates what the receiver perceives.
            controller = min(bad_txs, key=lambda tx: tx.sender)
            if controller.silence_at_collision:
                continue  # receiver hears nothing and notices nothing
            deliveries.append(
                Delivery(
                    receiver,
                    _apparent_sender(controller, receiver, self.grid.n),
                    controller.value,
                    controller.kind,
                    corrupted=True,
                )
            )
        deliveries.sort(key=lambda d: (d.receiver, d.sender))
        return deliveries

