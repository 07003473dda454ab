"""Shared protocol-node machinery.

All protocols in the paper share a simple node shape: receive values,
decide once (commit to a value), then relay the accepted value a
protocol-specific number of times. :class:`BroadcastNode` implements the
driver-facing plumbing (pending-send queue, round tracking, decision
recording) and :class:`ThresholdNode` the ``t*mf + 1``-copies acceptance
rule shared by protocol B, B_heter, and the Koo baseline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass

from repro.analysis.bounds import accept_threshold, source_send_count, validate_t
from repro.errors import ConfigurationError
from repro.radio.messages import MessageKind
from repro.types import VTRUE, NodeId, Role, Value


@dataclass(frozen=True)
class BroadcastParams:
    """Scenario-wide protocol parameters (paper §1.2)."""

    r: int
    t: int
    mf: int
    vtrue: Value = VTRUE

    def __post_init__(self) -> None:
        validate_t(self.r, self.t)
        if self.mf < 0:
            raise ConfigurationError(f"mf must be non-negative, got {self.mf}")

    @property
    def threshold(self) -> int:
        """Copies needed to accept: ``t*mf + 1``."""
        return accept_threshold(self.t, self.mf)

    @property
    def source_sends(self) -> int:
        """Local broadcasts performed by the source: ``2*t*mf + 1``."""
        return source_send_count(self.t, self.mf)


class BroadcastNode(ABC):
    """Base class for honest protocol nodes driven by the MAC round loop.

    Two class-level capability flags feed the driver's batched fast path
    (:mod:`repro.radio.mac`):

    - ``sends_stable = True`` promises that no ``on_receive`` can add a
      pending send without a decision. True here because the pending
      message/count only change at decide time, and a node with pending
      sends has already decided; the driver may then defer a slot's
      deliveries and stop re-checking owners that ran dry.
    - ``round_end_noop = True`` declares that :meth:`on_round_end` does
      nothing but advance the round counter, so the driver may skip the
      per-node round-end sweep whenever a flat engine stamps rounds at
      decide time instead.
    """

    sends_stable = True
    round_end_noop = True

    __slots__ = (
        "node_id",
        "role",
        "params",
        "_decided",
        "_accepted",
        "_decide_round",
        "_pending_msg",
        "_pending_count",
        "_current_round",
        "received_total",
    )

    def __init__(self, node_id: NodeId, role: Role, params: BroadcastParams) -> None:
        if role is Role.BAD:
            raise ConfigurationError("protocol nodes model honest behavior only")
        self.node_id = node_id
        self.role = role
        self.params = params
        self._decided = False
        self._accepted: Value | None = None
        self._decide_round: int | None = None
        # The (value, kind) pair handed to the driver. Rebuilt only when
        # the pending value changes, so steady-state sends allocate
        # nothing (tuples are immutable and safe to hand out repeatedly).
        self._pending_msg: tuple[Value, MessageKind] = (
            params.vtrue,
            MessageKind.DATA,
        )
        self._pending_count = 0
        self._current_round = 0
        self.received_total = 0
        if role is Role.SOURCE:
            self._decide(params.vtrue)
            self._pending_count = self.initial_source_sends()

    # -- protocol-specific policy ------------------------------------------

    def initial_source_sends(self) -> int:
        """How many local broadcasts the source performs (paper: 2tmf+1)."""
        return self.params.source_sends

    @abstractmethod
    def relay_count(self) -> int:
        """How many times a non-source node relays its accepted value."""

    @abstractmethod
    def on_value(self, sender: NodeId, value: Value) -> None:
        """Protocol-specific handling of a received DATA value."""

    # -- decision ----------------------------------------------------------

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def accepted_value(self) -> Value | None:
        return self._accepted

    @property
    def decide_round(self) -> int | None:
        return self._decide_round

    def _decide(self, value: Value) -> None:
        """Commit to a value (once) and queue the protocol's relays."""
        if self._decided:
            return
        self._decided = True
        self._accepted = value
        self._decide_round = self._current_round
        if self.role is not Role.SOURCE:
            self._pending_msg = (value, MessageKind.DATA)
            self._pending_count = self.relay_count()

    # -- driver interface (ProtocolNodeLike) --------------------------------

    def has_pending(self) -> bool:
        return self._pending_count > 0

    def pop_send(self) -> tuple[Value, MessageKind]:
        if self._pending_count <= 0:
            raise ConfigurationError(f"node {self.node_id} has nothing to send")
        self._pending_count -= 1
        return self._pending_msg

    def on_receive(self, sender: NodeId, value: Value, kind: MessageKind) -> None:
        if kind is not MessageKind.DATA:
            return
        self.received_total += 1
        self.on_value(sender, value)

    def on_round_end(self, round_index: int) -> None:
        self._current_round = round_index + 1


class ThresholdNode(BroadcastNode):
    """The ``t*mf + 1``-copies acceptance rule (§3.1 step 2).

    A node accepts a value once it has received it at least ``t*mf + 1``
    times; by Lemma 1 this can only ever fire for ``Vtrue``, because the
    ``t`` bad neighbors can plant at most ``t * mf`` copies of any wrong
    value. The relay count is injected per protocol (and per node, for the
    heterogeneous configuration).
    """

    __slots__ = ("_relay_count", "_threshold", "value_counts")

    def __init__(
        self,
        node_id: NodeId,
        role: Role,
        params: BroadcastParams,
        relay_count: int,
    ) -> None:
        if relay_count < 0:
            raise ConfigurationError(f"negative relay count: {relay_count}")
        self._relay_count = relay_count
        # Cached once: the t*mf+1 threshold is consulted on every receive,
        # and the property recomputes it from scratch.
        self._threshold = params.threshold
        self.value_counts: Counter[Value] = Counter()
        super().__init__(node_id, role, params)

    def relay_count(self) -> int:
        return self._relay_count

    def on_value(self, sender: NodeId, value: Value) -> None:
        self.value_counts[value] += 1
        if not self._decided and self.value_counts[value] >= self._threshold:
            self._decide(value)

    def count_of(self, value: Value) -> int:
        """How many copies of ``value`` this node has received (for reports)."""
        return self.value_counts[value]
