"""Name-based component registries for the declarative scenario API.

Three registries map stable string names to scenario components:

- :data:`placements` — bad-node placement classes
  (:class:`~repro.adversary.placement.Placement` subclasses);
- :data:`protocols` — :class:`ProtocolEntry` node/budget builders;
- :data:`behaviors` — :class:`BehaviorEntry` adversary factories.

Components register themselves at the bottom of their defining modules
(``repro.adversary.placement``, ``repro.protocols.protocol_b``, ...), so
adding a protocol or adversary behavior never requires editing the
scenario runner. Unknown names fail with the full registered-name list.

This module is deliberately a leaf (stdlib + ``repro.errors`` only):
component modules import it at their bottoms without creating import
cycles through the rest of the package.
"""

from __future__ import annotations

import difflib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterator, Mapping, TypeVar

from repro.errors import ConfigurationError, SpecValidationError

EntryT = TypeVar("EntryT")


class Registry(Generic[EntryT]):
    """A named component table with self-describing lookup errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, EntryT] = {}

    def register(self, name: str, entry: EntryT) -> EntryT:
        """Register ``entry`` under ``name``; duplicate names are rejected."""
        if name in self._entries:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered"
            )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> EntryT:
        """Look a component up; unknown names fail with the known set.

        The error is a :class:`~repro.errors.SpecValidationError` carrying
        the registry kind and close-match suggestions, so service/CLI
        front ends can render did-you-mean hints structurally.
        """
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "(none)"
            close = difflib.get_close_matches(
                str(name), sorted(self._entries), n=3
            )
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise SpecValidationError(
                f"unknown {self.kind} {name!r}{hint}; registered: {known}",
                field=self.kind,
                suggestions=tuple(close),
            ) from None

    def unregister(self, name: str) -> EntryT:
        """Remove and return a registered component (test doubles, probes)."""
        try:
            return self._entries.pop(name)
        except KeyError:
            raise ConfigurationError(
                f"{self.kind} {name!r} is not registered"
            ) from None

    @contextmanager
    def temporarily(self, name: str, entry: EntryT) -> Iterator[EntryT]:
        """Register ``entry`` for the duration of a ``with`` block.

        The fuzz suite and capability tests inject deliberately-broken
        doubles this way so a failing test can never leak them into the
        process-wide registry.
        """
        self.register(name, entry)
        try:
            yield entry
        finally:
            self.unregister(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def name_of(self, value: Any) -> str:
        """Reverse lookup (used to serialize placement classes by name)."""
        for name, entry in self._entries.items():
            if entry is value:
                return name
        raise ConfigurationError(
            f"{value!r} is not a registered {self.kind}; registered: "
            f"{', '.join(sorted(self._entries)) or '(none)'}"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._entries


# -- assembly contexts ---------------------------------------------------------
#
# The runner hands these to registered builders. Fields are typed ``Any``
# to keep this module a leaf; the concrete types are documented.


@dataclass(frozen=True)
class BuildContext:
    """What a protocol builder sees: the world, pre-node-construction.

    Attributes:
        spec: the :class:`~repro.scenario.spec.ScenarioSpec` being run.
        grid: live :class:`~repro.network.grid.Grid`.
        table: :class:`~repro.network.node.NodeTable` (roles assigned).
        source: source node id.
        params: :class:`~repro.protocols.base.BroadcastParams`.
    """

    spec: Any
    grid: Any
    table: Any
    source: int
    params: Any


@dataclass(frozen=True)
class ProtocolBuild:
    """A protocol builder's output, consumed by the scenario runner.

    ``assignment`` (a :class:`~repro.analysis.budgets.BudgetAssignment`)
    supplies good-node ledger budgets when present; ``ledger_overrides``
    adds per-node exceptions on top (the reactive protocol unbounds the
    source this way). ``max_rounds`` is the protocol's default run cap,
    used when the spec does not pin one.
    """

    nodes: Mapping[int, Any]
    max_rounds: int
    assignment: Any = None
    ledger_overrides: Mapping[int, int | None] = field(default_factory=dict)


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol: a name plus its scenario assembly hook.

    ``vector_build``, when present, returns the protocol's
    :class:`~repro.protocols.vectorized.ThresholdProgram` — the array
    form the whole-grid NumPy kernel executes instead of materializing
    per-node objects. It must encode exactly the relay/budget/round-cap
    choices ``build`` would make (the triple-differential suite pins
    this); returning ``None`` falls back to the per-node path.
    """

    name: str
    build: Callable[[BuildContext], ProtocolBuild]
    default_behavior: str
    description: str = ""
    vector_build: Callable[[BuildContext], Any] | None = None


@dataclass(frozen=True)
class BehaviorContext:
    """What an adversary-behavior factory sees.

    Attributes:
        spec: the :class:`~repro.scenario.spec.ScenarioSpec` being run.
        grid/table/ledger: live world objects.
        params: :class:`~repro.protocols.base.BroadcastParams`.
        rngs: an :class:`~repro.sim.rng.RngRegistry` rooted at
            ``spec.seed`` — behaviors draw named streams from it so their
            randomness is independent of scheduling and worker identity.
        tracer: the run's :class:`~repro.sim.trace.Tracer`.
    """

    spec: Any
    grid: Any
    table: Any
    ledger: Any
    params: Any
    rngs: Any
    tracer: Any

    @property
    def behavior_params(self) -> Mapping[str, Any]:
        return self.spec.behavior_params


@dataclass(frozen=True)
class BehaviorEntry:
    """One registered adversary behavior: name plus adversary factory."""

    name: str
    build: Callable[[BehaviorContext], Any]
    description: str = ""


placements: Registry[type] = Registry("placement")
protocols: Registry[ProtocolEntry] = Registry("protocol")
behaviors: Registry[BehaviorEntry] = Registry("behavior")


def default_threshold_max_rounds(
    spec: Any, source_sends: int, relay_count: int
) -> int:
    """Generous cap for threshold runs: source phase + one relay phase per
    unit of distance.

    ``spec`` is a :class:`~repro.network.grid.GridSpec`.
    """
    if spec.torus:
        max_distance = max(spec.width, spec.height) // 2
    else:
        max_distance = max(spec.width, spec.height)
    return source_sends + (max_distance + 2) * (relay_count + 2) + 10
