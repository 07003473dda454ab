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
every run lands here), so it avoids per-slot dict/set churn and, on
most calls, per-delivery allocation:

- slots are memoized whole: transmissions are frozen (hashable)
  dataclasses, so ``(tuple(honest), tuple(byzantine))`` exactly keys
  the resulting batch. Some traffic repeats exactly (E2's source repeats
  one slot 2001 times against the same planned jams), but across the 13
  experiments about 70% of calls miss the memo, and the misses carry
  nearly all of the resolver's time, so the miss path is what must be
  cheap;
- **delivery rows**: a medium caches, per ``(sender, value, kind)``,
  the tuple of :class:`Delivery` objects that one transmission yields
  where it is heard alone, one per receiver in
  :meth:`~repro.network.grid.Grid.neighbors_sorted` order. The cache is
  bounded by the number of deliveries it holds (not rows, so the bound
  does not depend on ``r``) and dropped wholesale when full;
- memo misses with a single transmission (no collision is possible)
  return a fresh batch over the sender's row;
- multi-transmission misses run over dense id-indexed scratch buffers
  (a ``bytearray`` heard-count, a ``bytearray`` transmitting mask, the
  row delivery of a receiver that hears one transmission, the
  controlling Byzantine sender per receiver, and a touched-receiver
  scratch list). They walk each sender's sorted neighbors together with
  its row, so deliveries come out already ordered by receiver, and only
  collision (corrupted) deliveries are built per slot.

Uncollided deliveries are therefore *shared*: the same transmission
heard alone by the same receiver is the same :class:`Delivery` object
in every batch built while its row stays cached. That is safe because a :class:`Delivery` is an
immutable ``NamedTuple``; as a tuple it also compares equal to the
plain 5-tuple ``(receiver, sender, value, kind, corrupted)``.

The historical dict-based implementation is preserved as
``resolve_slot_reference``; the determinism suite asserts both produce
byte-for-byte identical delivery lists.

Since the scenario fast path, the fast resolver returns a
:class:`DeliveryBatch` — a ``list`` subclass carrying a precomputed
``corrupted_count`` — and memo hits return the
*same cached batch object* rather than a fresh copy, so callers must
treat resolver output as immutable. Identity-stable batches are what
lets the round driver and the flat protocol engines cache per-batch
distribution plans (keyed by ``id(batch)`` while holding the batch
alive). A :class:`Medium` also owns the *whole-round memo*
(:meth:`round_memo_get` / :meth:`round_memo_put`): the driver keys a
steady-state round's entire transmission pattern by the tuple of its
slot signatures, so repeated rounds (silent rounds, relay plateaus,
repeated retransmission waves) resolve in one dict hit.

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

#: Whole-round memo bound (each entry holds one round's batch tuple).
_ROUND_MEMO_LIMIT = 512

#: Delivery-row bound, counted in deliveries held rather than rows so it
#: does not depend on ``r`` (the rows are dropped wholesale when a new
#: row would pass it).
_ROW_DELIVERY_LIMIT = 1 << 17


class Delivery(NamedTuple):
    """One value delivered to one receiver in one slot.

    ``corrupted`` marks deliveries manufactured through a collision — it
    is *simulation metadata* for metrics and adversary bookkeeping; the
    receiving protocol node never sees it (receivers cannot detect
    collisions in this model).

    An immutable tuple: uncollided deliveries are shared between batches
    (see the module docstring), and a delivery compares equal to the
    plain 5-tuple of its fields.
    """

    receiver: NodeId
    sender: NodeId
    value: Value
    kind: MessageKind
    corrupted: bool = False


class BatchPlanCache:
    """``id(batch) -> plan`` memo with an identity guard.

    Delivery batches are identity-stable (memo hits return the same
    object), so consumers that precompute per-batch *plans* — regrouped
    delivery views for the flat protocol engines, filtered receiver
    lists for adversary bookkeeping — key them by ``id(batch)``. Each
    entry holds the batch itself, pinning its id for the entry's
    lifetime; the identity recheck guards recycled addresses after a
    clear. Bounded: dropped wholesale when full.
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


#: Shared plan caches keyed by what the plan's content depends on (e.g.
#: ``("threshold", n, good-ids)``), so repeated runs of one scenario
#: shape — a sweep's points inside one worker — reuse plans instead of
#: rebuilding them per run. Process-local, like the batches themselves.
_PLAN_CACHES: dict[tuple, BatchPlanCache] = {}
_PLAN_CACHE_REGISTRY_LIMIT = 64


def shared_plan_cache(signature: tuple) -> BatchPlanCache:
    """The process-wide :class:`BatchPlanCache` for a plan signature.

    Callers must fold *everything* their plan derives from (beyond the
    batch content itself) into ``signature`` — two consumers with equal
    signatures will happily share plans.
    """
    cache = _PLAN_CACHES.get(signature)
    if cache is None:
        if len(_PLAN_CACHES) >= _PLAN_CACHE_REGISTRY_LIMIT:
            _PLAN_CACHES.clear()
        cache = _PLAN_CACHES[signature] = BatchPlanCache()
    return cache


class DeliveryBatch(list):
    """One slot's delivery list plus precomputed aggregates.

    A plain ``list`` to every existing consumer (equality, iteration,
    ``len``), with ``corrupted_count`` attached so the driver's stats
    update is O(1) instead of one pass per slot. Memo hits hand out the
    same batch object every time, which makes ``id(batch)`` a stable key
    for per-batch distribution plans **as long as the keeper also holds a
    strong reference to the batch** (see the flat protocol engines).
    Treat batches as immutable.
    """

    __slots__ = ("corrupted_count",)

    def __init__(self, deliveries=(), corrupted_count: int = 0) -> None:
        super().__init__(deliveries)
        self.corrupted_count = corrupted_count


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
        # Reusable flat scratch (multi-transmission slots), allocated on
        # the first multi-transmission slot: vectorized-kernel runs (and
        # single-transmission workloads) never resolve one, and five
        # O(n) buffers are real money on a 10^6-node grid. All buffers
        # are restored to their idle state after every call — including
        # on the ScheduleConflictError path — via the touched list.
        self._scratch_ready = False
        self._transmitting: bytearray
        self._heard: bytearray
        self._single: list[Delivery | None]
        self._ctrl_sender: list[int]
        self._ctrl_idx: list[int]
        self._touched: list[NodeId]
        # (tuple(honest), tuple(byzantine)) -> DeliveryBatch. Transmissions
        # are frozen dataclasses, so the key captures the slot's entire
        # input, including list order (which breaks equal-id Byzantine
        # ties). Hits return the cached batch itself (no copy).
        self._slot_memo: dict[tuple, DeliveryBatch] = {}
        # Whole-round memo: round signature -> whatever the driver stored
        # (a tuple of per-slot sender specs and batch tuples). Owned here
        # so warm Medium instances carry it across runs of one grid.
        self._round_memo: dict[tuple, tuple] = {}
        # (sender, value, kind) -> that transmission's uncollided
        # deliveries, one per receiver in neighbors_sorted(sender) order.
        # _row_deliveries counts the deliveries held, for the bound.
        self._rows: dict[tuple, tuple[Delivery, ...]] = {}
        self._row_deliveries = 0

    def resolve_slot(
        self,
        honest: list[Transmission],
        byzantine: list[BadTransmission],
    ) -> list[Delivery]:
        """Compute all deliveries for one slot.

        Honest transmissions in the same slot must be mutually
        non-interfering (the TDMA coloring guarantees it); a violation
        raises :class:`ScheduleConflictError` because it indicates a bug,
        not an attack.
        """
        if not honest and not byzantine:
            return []
        if not self.fast:
            return self.resolve_slot_reference(honest, byzantine)
        key = (tuple(honest), tuple(byzantine))
        cached = self._slot_memo.get(key)
        if cached is not None:
            return cached
        if len(honest) + len(byzantine) == 1:
            # A lone transmission: no collision is possible anywhere, so
            # every neighbor hears it verbatim (a lone Byzantine message
            # is a plain lie — spoof_sender only acts at collisions).
            tx = honest[0] if honest else byzantine[0]
            batch = DeliveryBatch(self._row(tx.sender, tx.value, tx.kind))
        else:
            batch = self._resolve_flat(honest, byzantine)
        if len(self._slot_memo) >= _SLOT_MEMO_LIMIT:
            self._slot_memo.clear()
        self._slot_memo[key] = batch
        return batch

    # -- whole-round memo --------------------------------------------------

    def round_memo_get(self, signature: tuple) -> tuple | None:
        """Look up a previously stored round by its transmission signature."""
        return self._round_memo.get(signature)

    def round_memo_put(self, signature: tuple, value: tuple) -> None:
        """Store one resolved round (bounded; dropped wholesale when full)."""
        if len(self._round_memo) >= _ROUND_MEMO_LIMIT:
            self._round_memo.clear()
        self._round_memo[signature] = value

    # -- fast path ---------------------------------------------------------

    def _row(
        self, sender: NodeId, value: Value, kind: MessageKind
    ) -> tuple[Delivery, ...]:
        """The uncollided deliveries of one transmission (cached row)."""
        key = (sender, value, kind)
        row = self._rows.get(key)
        if row is None:
            row = tuple([
                Delivery(receiver, sender, value, kind, False)
                for receiver in self.grid.neighbors_sorted(sender)
            ])
            if self._row_deliveries + len(row) > _ROW_DELIVERY_LIMIT:
                self._rows.clear()
                self._row_deliveries = 0
            self._rows[key] = row
            self._row_deliveries += len(row)
        return row

    def _ensure_scratch(self) -> None:
        n = self.grid.n
        self._transmitting = bytearray(n)
        self._heard = bytearray(n)  # 0, 1, or 2 meaning "two or more"
        self._single = [None] * n  # row delivery while heard == 1
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
        single = self._single
        ctrl_sender = self._ctrl_sender
        ctrl_idx = self._ctrl_idx
        touched = self._touched
        row_of = self._row

        # Radios are half-duplex: a node transmitting in this slot cannot
        # receive. (Only relevant when two Byzantine nodes are adjacent —
        # honest same-slot senders are out of range by TDMA construction.)
        for tx in honest:
            transmitting[tx.sender] = 1
        for tx in byzantine:
            transmitting[tx.sender] = 1

        try:
            for tx in honest:
                sender = tx.sender
                row = row_of(sender, tx.value, tx.kind)
                for receiver, delivery in zip(neighbors[sender], row):
                    if transmitting[receiver]:
                        continue
                    count = heard[receiver]
                    if count == 0:
                        heard[receiver] = 1
                        single[receiver] = delivery
                        touched.append(receiver)
                    elif count == 1:
                        heard[receiver] = 2
            for bindex, tx in enumerate(byzantine):
                sender = tx.sender
                row = row_of(sender, tx.value, tx.kind)
                for receiver, delivery in zip(neighbors[sender], row):
                    if transmitting[receiver]:
                        continue
                    count = heard[receiver]
                    if count == 0:
                        heard[receiver] = 1
                        single[receiver] = delivery
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
            deliveries = DeliveryBatch()
            append = deliveries.append
            corrupted = 0
            for receiver in touched:
                if heard[receiver] == 1:
                    append(single[receiver])
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
                corrupted += 1
                append(
                    Delivery(
                        receiver,
                        _apparent_sender(controller, receiver, n),
                        controller.value,
                        controller.kind,
                        True,
                    )
                )
            deliveries.corrupted_count = corrupted
            return deliveries
        finally:
            for tx in honest:
                transmitting[tx.sender] = 0
            for tx in byzantine:
                transmitting[tx.sender] = 0
            for receiver in touched:
                heard[receiver] = 0
                ctrl_sender[receiver] = n
            touched.clear()

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

