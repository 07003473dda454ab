"""B_reactive (paper §5): reliable broadcast with unknown ``mf``.

Composition of three pieces:

1. the two-level integrity code (:mod:`repro.coding`), which turns
   arbitrary jamming into *detectable* corruption except with probability
   ``~2^-L`` per attack;
2. a **reactive local broadcast** primitive: receivers NACK detected
   corruption; senders retransmit on any (even corrupted) NACK and stop
   after ``(2r+1)^2 - 1`` consecutive quiet message rounds;
3. certified propagation (Bhandari-Vaidya [3]) as the multi-hop layer,
   tolerating ``t < r(2r+1)/2``.

Simulation layering (see DESIGN.md): network-scale runs model each coded
local broadcast at message granularity. A jammed transmission delivers,
to every common neighbor of jammer and sender, either the distinguished
:data:`CORRUPT_MARKER` (verification failed — probability ``1 - p_forge``)
or an adversary-chosen *valid-looking* value with a spoofed sender
(probability ``p_forge = 1/(2^L - 1)``). The sub-bit physics behind those
two outcomes is simulated faithfully in :mod:`repro.coding.channel` and
exercised by experiment E6; ``p_forge`` is taken from the same formulas.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict, deque

from repro.coding.params import attack_success_probability, quiet_window, subbit_length
from repro.errors import ConfigurationError
from repro.network.grid import Grid
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.medium import DeliveryBatch
from repro.radio.messages import BadTransmission, MessageKind, Transmission
from repro.types import VFALSE, NodeId, Role, Value

#: Sentinel value for "the integrity code rejected this reception".
#: Receivers treat it as the paper's 'detected an error in the message'.
CORRUPT_MARKER: Value = -1

#: Sentinel payload of a (valid) NACK message.
NACK_PAYLOAD: Value = -2

#: The queued NACK entry. One shared immutable tuple: NACKs are all
#: identical, so queueing one must not allocate in the hot loop.
_NACK_MSG: tuple[Value, MessageKind] = (NACK_PAYLOAD, MessageKind.NACK)


class ReactivePhase(enum.Enum):
    IDLE = "idle"  # undecided; listening
    BROADCASTING = "broadcasting"  # decided; running reliable local bcast
    DONE = "done"  # quiet window elapsed; no more retransmissions


class ReactiveNode:
    """Honest node of B_reactive (drives on the slotted MAC).

    Deliberately not ``sends_stable``: a receive may append a NACK or a
    retransmission to the queue of a node that has already sent, so the
    driver keeps eager flushes and full owner re-scans while the
    adversary can still transmit.
    """

    __slots__ = (
        "node_id",
        "role",
        "source_id",
        "t",
        "quiet_limit",
        "vtrue",
        "endorsements",
        "phase",
        "_accepted",
        "_decide_round",
        "_current_round",
        "_queue",
        "_data_msg",
        "_quiet_rounds",
        "_failure_heard_this_round",
        "_retransmit_queued",
        "data_sent",
        "nacks_sent",
    )

    def __init__(
        self,
        node_id: NodeId,
        role: Role,
        source_id: NodeId,
        t: int,
        r: int,
        vtrue: Value,
        quiet_limit: int | None = None,
    ) -> None:
        if role is Role.BAD:
            raise ConfigurationError("ReactiveNode models honest behavior only")
        self.node_id = node_id
        self.role = role
        self.source_id = source_id
        self.t = t
        self.quiet_limit = quiet_window(r) if quiet_limit is None else quiet_limit
        self.vtrue = vtrue
        self.endorsements: dict[Value, set[NodeId]] = defaultdict(set)
        self.phase = ReactivePhase.IDLE
        self._accepted: Value | None = None
        self._decide_round: int | None = None
        self._current_round = 0
        self._queue: deque[tuple[Value, MessageKind]] = deque()
        # Cached (value, DATA) entry, built once at decide time so every
        # retransmission enqueues the same immutable tuple.
        self._data_msg: tuple[Value, MessageKind] | None = None
        self._quiet_rounds = 0
        self._failure_heard_this_round = False
        self._retransmit_queued = False
        self.data_sent = 0
        self.nacks_sent = 0
        if role is Role.SOURCE:
            self._decide(vtrue)

    # -- decision state (DecidingNode protocol) --------------------------------

    @property
    def decided(self) -> bool:
        return self._accepted is not None

    @property
    def accepted_value(self) -> Value | None:
        return self._accepted

    @property
    def decide_round(self) -> int | None:
        return self._decide_round

    def _decide(self, value: Value) -> None:
        if self.decided:
            return
        self._accepted = value
        self._decide_round = self._current_round
        self.phase = ReactivePhase.BROADCASTING
        self._quiet_rounds = 0
        self._data_msg = (value, MessageKind.DATA)
        self._queue_data()

    def _queue_data(self) -> None:
        if not self._retransmit_queued:
            self._queue.append(self._data_msg)
            self._retransmit_queued = True

    # -- driver interface (ProtocolNodeLike) ------------------------------------

    def has_pending(self) -> bool:
        return bool(self._queue)

    def pop_send(self) -> tuple[Value, MessageKind]:
        if not self._queue:
            raise ConfigurationError(f"node {self.node_id} has nothing to send")
        value, kind = self._queue.popleft()
        if kind is MessageKind.DATA:
            self.data_sent += 1
            self._retransmit_queued = False
            self._quiet_rounds = 0  # the window counts from the last send
        else:
            self.nacks_sent += 1
        return value, kind

    def on_receive(self, sender: NodeId, value: Value, kind: MessageKind) -> None:
        if value == CORRUPT_MARKER:
            # Verification failed; indistinguishable whether the mangled
            # message round carried data or a NACK. Per §5 it counts as a
            # transmission-failure indication AND prompts our own NACK.
            self._failure_heard_this_round = True
            self._queue.append(_NACK_MSG)
            return
        if kind is MessageKind.NACK:
            # A well-formed NACK: failure indication only.
            self._failure_heard_this_round = True
            return
        # A data message that passed integrity verification.
        self._on_valid_data(sender, value)

    def _on_valid_data(self, sender: NodeId, value: Value) -> None:
        if self.decided:
            return
        if sender == self.source_id:
            self._decide(value)
            return
        self.endorsements[value].add(sender)
        if len(self.endorsements[value]) >= self.t + 1:
            self._decide(value)

    def on_round_end(self, round_index: int) -> None:
        self._current_round = round_index + 1
        if self.phase is ReactivePhase.BROADCASTING:
            if self._failure_heard_this_round:
                self._quiet_rounds = 0
                self._queue_data()  # retransmit on any failure indication
            else:
                self._quiet_rounds += 1
                if self._quiet_rounds >= self.quiet_limit and not self._retransmit_queued:
                    self.phase = ReactivePhase.DONE
        self._failure_heard_this_round = False


class CodedJammerAdversary:
    """Worst-case jammer against coded transmissions.

    Attacks honest transmissions greedily while budget lasts. Each attack
    costs the attacking bad node one message and produces, at every common
    neighbor of attacker and victim:

    - with probability ``p_forge``: a forged *valid* data message carrying
      ``forge_value`` that appears to come from the victim sender (the
      code was defeated — the ``2^-L`` event);
    - otherwise: a :data:`CORRUPT_MARKER` reception (tampering detected).

    A coded transmission cannot be silently canceled, which is exactly the
    property the sub-bit layer buys (see :mod:`repro.coding.channel`).

    Driver fast-path capabilities (see
    :class:`~repro.radio.mac.AdversaryLike`): purely reactive
    (``spontaneous = False`` — ``on_slot`` with no honest traffic is an
    effect-free ``[]``) and ``observe_stateless`` (``observe`` is a
    no-op and ``on_slot`` reads only its arguments, the ledger, and its
    own RNG).
    """

    spontaneous = False
    observe_stateless = True

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        rng: random.Random,
        *,
        p_forge: float,
        forge_value: Value = VFALSE,
        attack_nacks: bool = True,
        attackers_per_victim: int = 1,
    ) -> None:
        if not 0.0 <= p_forge <= 1.0:
            raise ConfigurationError(f"p_forge must be a probability, got {p_forge}")
        self.grid = grid
        self.table = table
        self.ledger = ledger
        self.rng = rng
        self.p_forge = p_forge
        self.forge_value = forge_value
        self.attack_nacks = attack_nacks
        self.attackers_per_victim = attackers_per_victim
        self.attacks = 0
        self.successful_forgeries = 0
        # Bad nodes able to interfere with each sender (within 2r: they
        # share a receiver), built on first use.
        self._jammers_near: dict[NodeId, tuple[NodeId, ...]] | None = None

    @classmethod
    def with_recommended_code(
        cls,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        rng: random.Random,
        *,
        t: int,
        mmax: int,
        **kwargs,
    ) -> "CodedJammerAdversary":
        """Use ``p_forge`` implied by ``L = 2log n + log t + log mmax``."""
        length = subbit_length(grid.n, max(t, 1), mmax)
        return cls(
            grid, table, ledger, rng,
            p_forge=attack_success_probability(length), **kwargs,
        )

    def _jammers_by_sender(self) -> dict[NodeId, tuple[NodeId, ...]]:
        near = self._jammers_near
        if near is None:
            # Farthest-first, then by id: a jammer beyond distance r is
            # inaudible to the victim sender itself, so the sender gets
            # no same-round hint that its transmission was mangled — it
            # must rely on NACKs, which is the worst case for the
            # quiet-window logic.
            near = self._jammers_near = self.grid.members_within(
                self.table.bad_ids, 2 * self.grid.r, farthest_first=True
            )
        return near

    # -- AdversaryLike -----------------------------------------------------------

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        actions: list[BadTransmission] = []
        used_this_slot: set[NodeId] = set()  # a node transmits once per slot
        near = self._jammers_by_sender()
        for victim in honest:
            if victim.kind is MessageKind.NACK and not self.attack_nacks:
                continue
            used = 0
            for jammer in near.get(victim.sender, ()):
                if used >= self.attackers_per_victim:
                    break
                if jammer in used_this_slot or not self.ledger.can_send(jammer):
                    continue
                used_this_slot.add(jammer)
                actions.append(self._attack(jammer, victim))
                used += 1
        return actions

    def _attack(self, jammer: NodeId, victim: Transmission) -> BadTransmission:
        self.attacks += 1
        if self.rng.random() < self.p_forge:
            self.successful_forgeries += 1
            return BadTransmission(
                sender=jammer,
                value=self.forge_value,
                kind=MessageKind.DATA,
                spoof_sender=victim.sender,
            )
        return BadTransmission(
            sender=jammer,
            value=CORRUPT_MARKER,
            kind=victim.kind,
            spoof_sender=victim.sender,
        )

    def observe(
        self, deliveries: DeliveryBatch, repeat: int = 1
    ) -> None:  # omniscient, stateless
        return

    def has_pending(self) -> bool:
        return False  # purely reactive


def make_reactive_nodes(
    table: NodeTable,
    t: int,
    r: int,
    vtrue: Value,
    quiet_limit: int | None = None,
) -> dict[NodeId, ReactiveNode]:
    """One B_reactive node per honest grid node.

    ``quiet_limit`` overrides the paper's ``(2r+1)^2 - 1`` NACK-free
    window (ablation E9c only).
    """
    nodes: dict[NodeId, ReactiveNode] = {}
    for nid in table.good_ids:
        role = Role.SOURCE if nid == table.source else Role.GOOD
        nodes[nid] = ReactiveNode(
            nid, role, table.source, t, r, vtrue, quiet_limit=quiet_limit
        )
    return nodes


def _build_reactive(ctx):
    """Registered "reactive" scenario assembly (§5, unknown mf).

    The source is unbounded (base station) and good nodes carry no ledger
    budget at all — B_reactive's cost bound comes from the protocol's own
    retransmission discipline, not from the ledger.
    ``protocol_params["quiet_limit"]`` overrides the paper's
    ``(2r+1)^2 - 1`` NACK-free window (ablation E9c only).
    """
    from repro.scenario.registries import ProtocolBuild

    spec = ctx.spec
    nodes = make_reactive_nodes(
        ctx.table,
        spec.t,
        spec.grid.r,
        spec.vtrue,
        quiet_limit=spec.protocol_params.get("quiet_limit"),
    )
    # Every local broadcast waits out a (2r+1)^2-1 quiet window; attacks
    # prolong it by at most one window per bad message.
    window = (2 * spec.grid.r + 1) ** 2
    hops = (max(spec.grid.width, spec.grid.height) // 2) // spec.grid.r + 2
    attack_budget = len(ctx.table.bad_ids) * spec.mf
    return ProtocolBuild(
        nodes=nodes,
        assignment=None,
        ledger_overrides={ctx.source: None},
        max_rounds=hops * window + attack_budget * window + 50,
    )


def _build_coded_jammer(ctx):
    """Registered "coded" behavior: the coded-channel jammer of §5.

    ``behavior_params``: ``p_forge`` forces a (large) forgery probability
    so tests can exercise the failure path deterministically;
    ``attack_nacks`` (default True) lets the jammer also attack NACKs.
    The recommended-code path needs ``spec.mmax`` (the loose budget bound
    that sets the integrity-code length).
    """
    params = ctx.behavior_params
    rng = ctx.rngs.stream("reactive-adversary")
    attack_nacks = params.get("attack_nacks", True)
    p_forge = params.get("p_forge")
    if p_forge is not None:
        return CodedJammerAdversary(
            ctx.grid,
            ctx.table,
            ctx.ledger,
            rng,
            p_forge=p_forge,
            attack_nacks=attack_nacks,
        )
    if ctx.spec.mmax is None:
        raise ConfigurationError(
            "behavior 'coded' needs spec.mmax (the loose bound on mf that "
            "sets the integrity-code length) unless behavior_params "
            "pins 'p_forge'"
        )
    return CodedJammerAdversary.with_recommended_code(
        ctx.grid,
        ctx.table,
        ctx.ledger,
        rng,
        t=ctx.spec.t,
        mmax=ctx.spec.mmax,
        attack_nacks=attack_nacks,
    )


from repro.scenario.registries import (  # noqa: E402
    BehaviorEntry,
    ProtocolEntry,
    behaviors as _behaviors,
    protocols as _protocols,
)

_protocols.register(
    "reactive",
    ProtocolEntry(
        "reactive",
        _build_reactive,
        default_behavior="coded",
        description="B_reactive (§5): integrity code + NACK loop + CPA",
    ),
)
_behaviors.register(
    "coded",
    BehaviorEntry(
        "coded",
        _build_coded_jammer,
        "coded-channel jammer (forgeries succeed with probability ~2^-L)",
    ),
)
