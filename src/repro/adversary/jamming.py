"""Worst-case collision adversary for the threshold protocols (§2-§4).

:class:`ThresholdGuardJammer` is the algorithmic realization of the
paper's lower-bound counting argument (Theorem 1 / Figure 2): it watches
every clean delivery of ``Vtrue`` and spends a bad message *exactly* when
letting one more copy through would allow some protected receiver to
reach the acceptance threshold ``t*mf + 1``.

Lazy jamming is the budget-optimal shape of the attack: each jam both
removes one correct copy from every common neighbor of jammer and victim
*and* plants a wrong copy there (the paper's collisions may deliver wrong
values), so with the Theorem-1/Figure-2 placements the stripe windows'
``t * mf`` budget suffices to starve the frontier whenever ``m < m0`` —
and provably cannot when ``m >= 2*m0``, which is what experiments E1-E3
demonstrate.

The jammer also tells the batched round loop how lazy it is about to be.
When a call to :meth:`ThresholdGuardJammer.on_slot` finds nobody at
risk, :meth:`~ThresholdGuardJammer.quiet_bursts` is the number of
further identical bursts it is certain to let through: a jam-free burst
adds exactly one clean copy at each receiver of a ``Vtrue`` DATA
transmission (honest senders of one slot share no receiver), so a
receiver with ``clean`` copies stays below the tip for
``threshold - 2 - clean`` more repeats, and decisions only shrink the
set being watched. The driver coalesces those repeats into one resolve,
one distribution and one ``observe(batch, repeat)`` without consulting
``on_slot`` again.

The neighborhood tables are built from the sparse side: each protected
receiver's ball lists it as a protected neighbor of every sender in it,
and each bad node's ball lists it as a candidate jammer of every
protected receiver in it (the neighbor relation is symmetric). Their
order differs from a per-sender filter of the grid's neighbor lists,
which cannot change the output: the greedy cover's choice is a total
order and its result is emitted sorted.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Mapping

from repro.adversary.base import Adversary
from repro.errors import ConfigurationError
from repro.network.grid import Grid
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.medium import DeliveryBatch
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from repro.sim.trace import NULL_TRACER, Tracer
from repro.types import VFALSE, VTRUE, NodeId, Value


class ThresholdGuardJammer(Adversary):
    """Greedy, omniscient, coordinated jammer.

    Args:
        grid/table/ledger: world access (the adversary is omniscient).
        threshold: acceptance threshold being guarded (``t*mf + 1``).
        protected: receivers to starve; default — every good non-source
            node. Experiments pass the victim band to focus the budget.
        decided_fn: oracle for "has this node already accepted?" (jamming
            decided nodes is wasted budget). Bound after protocol nodes
            exist via :meth:`bind_decided`.
        wrong_value: value planted at collision receivers.
    """

    #: Purely reactive: spends budget only against honest transmissions.
    spontaneous = False
    # observe_stateless stays False: on_slot reads the clean-copy counts
    # that observe maintains, plus protocol-node decision state.
    #: ``observe`` only maintains ``_clean``, which nothing but
    #: ``on_slot`` reads — skipping it is unobservable whenever the
    #: jammer can never transmit (mf=0 or no bad nodes), which is what
    #: lets the vectorized kernel take jam-behavior scenarios.
    observe_inert_when_broke = True

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        threshold: int,
        *,
        protected: Iterable[NodeId] | None = None,
        wrong_value: Value = VFALSE,
        vtrue: Value = VTRUE,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.grid = grid
        self.table = table
        self.ledger = ledger
        self.threshold = threshold
        self.wrong_value = wrong_value
        self.vtrue = vtrue
        self.tracer = tracer
        if protected is None:
            protected = [
                nid for nid in table.good_ids if nid != table.source
            ]
        else:
            # A Byzantine "victim" has no decision state to guard (and
            # the reference decision oracle only knows honest nodes), so
            # bad ids in an explicit protected set are dropped rather
            # than wasting jam budget on them. Found by repro.fuzz:
            # tests/corpus pins the regression.
            protected = [nid for nid in protected if not table.is_bad(nid)]
        self.protected: frozenset[NodeId] = frozenset(protected)
        self._protected_mask = bytearray(grid.n)
        for nid in self.protected:
            self._protected_mask[nid] = 1
        self._decided_fn: Callable[[NodeId], bool] = lambda nid: False
        self._decided_bits: bytearray | None = None
        # clean[w] = uncorrupted Vtrue copies delivered to w so far
        # (flat, id-indexed — consulted on every at-risk check).
        self._clean: list[int] = [0] * grid.n
        # Neighborhood tables, built on first use (a jammer that never
        # runs, as on the vectorized kernel, never pays for them):
        # protected neighbors of each sender, so the at-risk scan
        # touches only candidates instead of the whole ball, and bad
        # neighbors of each protected receiver. Absent: none.
        self._protected_near: dict[NodeId, tuple[NodeId, ...]] | None = None
        self._bad_near: dict[NodeId, tuple[NodeId, ...]] | None = None
        # further identical bursts the last on_slot is certain to let through
        self._quiet = 0
        self.jams = 0

    def bind_decided(self, nodes: Mapping[NodeId, object]) -> None:
        """Wire the decision oracle to live protocol nodes."""
        self._decided_fn = lambda nid: bool(getattr(nodes[nid], "decided", False))

    def bind_decided_bits(self, bits: bytearray) -> None:
        """Read decisions from a shared flat bitmap (flat-engine runs)."""
        self._decided_bits = bits

    # -- helpers ---------------------------------------------------------------

    def _protected_neighbors(self) -> dict[NodeId, tuple[NodeId, ...]]:
        near = self._protected_near
        if near is None:
            rows: list[list[NodeId]] = [[] for _ in range(self.grid.n)]
            for receiver in sorted(self.protected):
                for sender in self.grid.neighbors(receiver):
                    rows[sender].append(receiver)
            near = {sender: tuple(row) for sender, row in enumerate(rows) if row}
            self._protected_near = near
        return near

    def _bad_neighbors(self) -> dict[NodeId, tuple[NodeId, ...]]:
        near = self._bad_near
        if near is None:
            protected = self._protected_mask
            rows: dict[NodeId, list[NodeId]] = {}
            for jammer in self.table.bad_ids:
                for receiver in self.grid.neighbors(jammer):
                    if protected[receiver]:
                        rows.setdefault(receiver, []).append(jammer)
            near = {receiver: tuple(row) for receiver, row in rows.items()}
            self._bad_near = near
        return near

    # -- AdversaryLike ------------------------------------------------------------

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        self._quiet = 0
        if not honest:
            return []
        # Protected, undecided receivers whom this slot's Vtrue deliveries
        # would tip over; every other such receiver of a DATA victim
        # bounds the quiet horizon by its room below the tip.
        at_risk: list[NodeId] = []
        least_room = sys.maxsize
        clean = self._clean
        bits = self._decided_bits
        decided = self._decided_fn
        protected_near = self._protected_neighbors()
        tip = self.threshold - 1
        data = MessageKind.DATA
        for victim in honest:
            if victim.value != self.vtrue:
                continue
            counted = victim.kind is data
            for receiver in protected_near.get(victim.sender, ()):
                if bits is not None:
                    if bits[receiver]:
                        continue
                elif decided(receiver):
                    continue
                room = tip - clean[receiver]
                if room <= 0:
                    at_risk.append(receiver)
                elif counted and room < least_room:
                    least_room = room

        if not at_risk:
            self._quiet = least_room - 1
            return []

        # (receiver, candidate jammers) pairs still needing coverage.
        bad_near = self._bad_neighbors()
        pending = {receiver: bad_near.get(receiver, ()) for receiver in at_risk}
        chosen: set[NodeId] = set()
        # Greedy set cover: repeatedly pick the budgeted bad node covering
        # the most still-uncovered at-risk receivers.
        while pending:
            coverage: dict[NodeId, int] = {}
            for receiver, candidates in pending.items():
                for jammer in candidates:
                    if jammer in chosen or not self.ledger.can_send(jammer):
                        continue
                    coverage[jammer] = coverage.get(jammer, 0) + 1
            if not coverage:
                break  # out of reachable budget: these receivers will accept
            best = max(coverage, key=lambda j: (coverage[j], -j))
            chosen.add(best)
            pending = {
                receiver: candidates
                for receiver, candidates in pending.items()
                if self.grid.distance(best, receiver) > self.grid.r
            }

        self.jams += len(chosen)
        if self.tracer.enabled:
            for jammer in sorted(chosen):
                self.tracer.emit(
                    "adversary.jam", (round_index, slot), jammer=jammer
                )
        return [
            BadTransmission(sender=jammer, value=self.wrong_value)
            for jammer in sorted(chosen)
        ]

    def quiet_bursts(self) -> int:
        """Further bursts equal to the last ``on_slot``'s it will let through.

        0 whenever that call found anyone at risk, jam or not.
        """
        return self._quiet

    def observe(self, deliveries: DeliveryBatch, repeat: int = 1) -> None:
        """Count clean ``Vtrue`` DATA copies at protected receivers.

        Per segment: a segment that reached the sender's whole
        neighborhood adds ``repeat`` copies at each of the sender's
        protected neighbors; a partial one is filtered by the protected
        mask.
        """
        clean = self._clean
        protected = self._protected_mask
        protected_near = self._protected_neighbors()
        full = self.grid._neighbors_sorted
        vtrue = self.vtrue
        data = MessageKind.DATA
        for sender, value, kind, corrupted, receivers in deliveries.segments:
            if corrupted or kind is not data or value != vtrue:
                continue
            if receivers is full[sender]:
                for receiver in protected_near.get(sender, ()):
                    clean[receiver] += repeat
            else:
                for receiver in receivers:
                    if protected[receiver]:
                        clean[receiver] += repeat

    def clean_copies_at(self, receiver: NodeId) -> int:
        """Clean Vtrue copies a protected receiver has (for experiment reports)."""
        return self._clean[receiver]


class PlannedJammer(Adversary):
    """Executes a precomputed jam plan (the clairvoyant constructions).

    The lower-bound *constructions* of the paper (Theorem 1's stripe and
    especially Figure 2's lattice) implicitly assume the adversary plans
    which message events to corrupt so that jams are maximally shared
    between frontier receivers. The lazy
    :class:`ThresholdGuardJammer` does not reach that optimum in
    Figure 2's razor-tight budget (it lets every receiver bank
    ``t*mf`` clean copies before spending anything, and the per-receiver
    tails do not overlap enough); this jammer executes an explicit plan
    instead.

    ``plan`` maps each jamming bad node to ``{victim_sender: quota}``
    where ``quota`` is how many of that sender's transmissions to jam
    (``None`` = all of them, budget permitting). Several jammers may be
    assigned the same victim; they all transmit in the victim's slot,
    widening the corrupted area — Figure 2 needs exactly that for the
    mid-side suppliers audible from two defenders.

    Purely reactive and observe-stateless: ``on_slot`` reads only the
    plan quotas and the ledger, so the driver may skip empty slots and
    dedup repeated bursts (the Figure-2 source phase is 2001 of them).
    """

    spontaneous = False
    observe_stateless = True

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        plan: Mapping[NodeId, Mapping[NodeId, int | None]],
        *,
        wrong_value: Value = VFALSE,
    ) -> None:
        self.grid = grid
        self.table = table
        self.ledger = ledger
        self.wrong_value = wrong_value
        self.jams = 0
        # victim sender -> [(jammer, remaining quota)]
        self._assignments: dict[NodeId, list[list[int | None]]] = {}
        for jammer, victims in plan.items():
            if not table.is_bad(jammer):
                raise ConfigurationError(f"planned jammer {jammer} is not a bad node")
            for victim, quota in victims.items():
                self._assignments.setdefault(victim, []).append(
                    [jammer, quota]
                )

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        actions: list[BadTransmission] = []
        used: set[NodeId] = set()
        for victim in honest:
            for entry in self._assignments.get(victim.sender, ()):
                jammer, quota = entry
                if quota is not None and quota <= 0:
                    continue
                if jammer in used or not self.ledger.can_send(jammer):
                    continue
                used.add(jammer)
                if quota is not None:
                    entry[1] = quota - 1
                actions.append(
                    BadTransmission(sender=jammer, value=self.wrong_value)
                )
        self.jams += len(actions)
        return actions


def _build_threshold_guard(ctx) -> ThresholdGuardJammer:
    """Registered "jam" behavior: the lazy threshold-guard jammer."""
    return ThresholdGuardJammer(
        ctx.grid,
        ctx.table,
        ctx.ledger,
        threshold=ctx.params.threshold,
        protected=ctx.spec.protected,
        vtrue=ctx.spec.vtrue,
        tracer=ctx.tracer,
    )


from repro.scenario.registries import BehaviorEntry, behaviors as _behaviors  # noqa: E402

_behaviors.register(
    "jam",
    BehaviorEntry(
        "jam",
        _build_threshold_guard,
        "lazy threshold-guard jammer (the lower-bound counting argument)",
    ),
)
