"""Non-jamming and spoofing adversary behaviors.

- :class:`SpamLiar` — bad nodes broadcast a wrong value in their own TDMA
  slots until their budget runs out. Powerless against the threshold
  protocols (Lemma 1: at most ``t*mf`` wrong copies per receiver), which
  is exactly what correctness tests use it for.
- :class:`SpoofingJammer` — jams honest transmissions and makes the
  garbled result look like the *victim* endorsed a wrong value. Defeats
  naive certified propagation (each jammed relay becomes a distinct fake
  endorsement), demonstrating why §5 needs the integrity code; the coded
  channel reduces this attack to the ``2^-L`` guessing game.
"""

from __future__ import annotations

import itertools

from repro.adversary.base import Adversary
from repro.network.grid import Grid
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.messages import BadTransmission, Transmission
from repro.radio.schedule import TdmaSchedule
from repro.types import VFALSE, NodeId, Value


class SpamLiar(Adversary):
    """Every bad node repeats a wrong value in its own slot, budget permitting.

    Transmitting in the node's own TDMA slot never collides with honest
    traffic (same-slot nodes share no receiver), so this is a pure
    value-planting attack. Spontaneous by nature, but observe-stateless:
    ``on_slot`` reads only the slot map and the ledger.
    """

    observe_stateless = True

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        *,
        wrong_value: Value = VFALSE,
    ) -> None:
        self.table = table
        self.ledger = ledger
        self.wrong_value = wrong_value
        self.schedule = TdmaSchedule(grid)
        self._by_slot: dict[int, list[NodeId]] = {}
        for bad in table.bad_ids:
            self._by_slot.setdefault(self.schedule.slot_of(bad), []).append(bad)

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        return [
            BadTransmission(sender=bad, value=self.wrong_value)
            for bad in self._by_slot.get(slot, ())
            if self.ledger.can_send(bad)
        ]

    def has_pending(self) -> bool:
        return any(
            self.ledger.can_send(bad)
            for bads in self._by_slot.values()
            for bad in bads
        )


class SpoofingJammer(Adversary):
    """Jam relays and forge the victims' endorsements (anti-CPA attack).

    For every honest transmission, one in-range bad node (within ``2r``,
    i.e. sharing at least one receiver) collides with it and dictates
    that common neighbors hear ``wrong_value`` *apparently from the
    victim*. Against sender-counting protocols each jam simultaneously
    suppresses a real endorsement and manufactures a fake one.

    Purely reactive and observe-stateless: ``on_slot`` reads only its
    own caches and the ledger.
    """

    spontaneous = False
    observe_stateless = True

    def __init__(
        self,
        grid: Grid,
        table: NodeTable,
        ledger: BudgetLedger,
        *,
        wrong_value: Value = VFALSE,
        jammers_per_victim: int = 1,
    ) -> None:
        self.grid = grid
        self.table = table
        self.ledger = ledger
        self.wrong_value = wrong_value
        self.jammers_per_victim = jammers_per_victim
        # In-range bad nodes of each sender, ascending, built on first use.
        self._near: dict[NodeId, tuple[NodeId, ...]] | None = None
        self.jams = 0

    def _jammers_by_sender(self) -> dict[NodeId, tuple[NodeId, ...]]:
        near = self._near
        if near is None:
            near = self._near = self.grid.members_within(
                self.table.bad_ids, 2 * self.grid.r
            )
        return near

    def on_slot(
        self, round_index: int, slot: int, honest: list[Transmission]
    ) -> list[BadTransmission]:
        actions: list[BadTransmission] = []
        used_this_slot: set[NodeId] = set()
        near = self._jammers_by_sender()
        for victim in honest:
            candidates = (
                jammer
                for jammer in near.get(victim.sender, ())
                if jammer not in used_this_slot and self.ledger.can_send(jammer)
            )
            for jammer in itertools.islice(candidates, self.jammers_per_victim):
                used_this_slot.add(jammer)
                actions.append(
                    BadTransmission(
                        sender=jammer,
                        value=self.wrong_value,
                        spoof_sender=victim.sender,
                    )
                )
        self.jams += len(actions)
        return actions


from repro.scenario.registries import BehaviorEntry, behaviors as _behaviors  # noqa: E402

_behaviors.register(
    "lie",
    BehaviorEntry(
        "lie",
        lambda ctx: SpamLiar(ctx.grid, ctx.table, ctx.ledger),
        "bad nodes spam a wrong value in their own slots",
    ),
)
_behaviors.register(
    "spoof",
    BehaviorEntry(
        "spoof",
        lambda ctx: SpoofingJammer(ctx.grid, ctx.table, ctx.ledger),
        "jam relays and forge the victims' endorsements (anti-CPA)",
    ),
)
