"""Adversary behavior base classes."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.radio.medium import DeliveryBatch
from repro.radio.messages import BadTransmission, Transmission


class Adversary(ABC):
    """A single coordinated Byzantine mind controlling all bad nodes.

    The driver consults it at every slot (:meth:`on_slot`) and shows it
    every delivery (:meth:`observe`) — the adversary is omniscient, which
    is the right model for worst-case analysis: anything a weaker
    adversary achieves, this one can.

    Fast-path capability flags (see
    :class:`~repro.radio.mac.AdversaryLike`; both default conservative):

    - ``spontaneous``: set ``False`` on subclasses whose ``on_slot`` is
      an effect-free ``[]`` whenever ``honest`` is empty, so the driver
      may skip empty slots. Re-evaluate when subclassing further.
    - ``observe_stateless``: set ``True`` on subclasses whose
      ``observe`` has no observable effect and whose ``on_slot`` /
      ``has_pending`` read no delivery- or protocol-node-derived state,
      enabling the driver's burst dedup.
    - ``observe_inert_when_broke``: set ``True`` on subclasses whose
      ``observe`` maintains state that is only ever read by ``on_slot``
      — so skipping ``observe`` entirely is unobservable in any run
      where no bad node can ever transmit. The vectorized whole-grid
      kernel (:mod:`repro.protocols.vectorized`) requires one of these
      two flags (or an un-overridden ``observe``) to engage.

    Fast-path hook (see :class:`~repro.radio.mac.AdversaryLike`):

    - :meth:`quiet_bursts`: override on subclasses that can promise to
      let further bursts identical to the last ``on_slot`` input
      through; the driver then coalesces them without calling
      ``on_slot``, with or without burst dedup. The default, 0,
      promises nothing.

    ``on_slot`` must treat its ``honest`` list as read-only (the driver
    may pass one list object for a whole run of bursts) and must not
    read honest senders' ledger or pending state, which the driver
    settles at the start of each slot.

    Additionally, every adversary must satisfy the driver contract that
    ``on_slot`` is an effect-free ``[]`` once no bad node has ledger
    budget left (the driver stops consulting it then).
    """

    spontaneous = True
    observe_stateless = False
    observe_inert_when_broke = False

    @abstractmethod
    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        """Byzantine transmissions for this slot."""

    def observe(self, deliveries: DeliveryBatch, repeat: int = 1) -> None:
        """Default: ignore (stateless adversaries)."""

    def quiet_bursts(self) -> int:
        """Default: no promise beyond the last ``on_slot`` call."""
        return 0

    def has_pending(self) -> bool:
        """Default: purely reactive — never keeps a run alive by itself."""
        return False


class NullAdversary(Adversary):
    """Bad nodes that never transmit (crash-faulty placement, clean runs).

    ``spontaneous`` stays ``True``: test doubles subclass this with
    transmitting ``on_slot`` overrides, so the empty-slot skip must not
    be inherited silently.
    """

    observe_stateless = True

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        return []


from repro.scenario.registries import BehaviorEntry, behaviors as _behaviors  # noqa: E402

_behaviors.register(
    "none",
    BehaviorEntry(
        "none",
        lambda ctx: NullAdversary(),
        "bad nodes never transmit (crash faults, clean runs)",
    ),
)
