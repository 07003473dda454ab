"""Fast/reference implementation seams and the tier that selects them.

Every fast path in this repository keeps its historical implementation
alive as a *reference twin*, and a differential test pins the two
byte-identical. Which side a run takes is a value, not a process-global
switch: :class:`Tier`, passed per call as
``repro.scenario.run(spec, tier=...)``.

- ``Tier.REFERENCE`` runs every twin: a cold world (python grid build,
  dict slot resolver, fresh role table), the per-delivery round loop and
  the per-node protocol state. A traced run always takes this tier.
- ``Tier.FAST`` runs the fast side of every ``FAST`` seam below.
- ``Tier.VECTOR`` (the default) adds the NumPy whole-grid kernel for the
  runs it can reproduce bit-for-bit.

:data:`SEAMS` lists each pair once, with the lowest tier that uses its
fast side. :mod:`repro.fuzz` runs every sampled case at each tier
(``VECTOR`` when NumPy is installed) and compares the reports; the
static analyzer (``python -m repro check``) verifies that no
module-level boolean switch comes back (RPR101), that every seam's
differential test exists and names it (RPR102), and that every seam's
tier is ``FAST`` or ``VECTOR`` (RPR103).

This module is deliberately a leaf (stdlib + :mod:`repro.errors` only)
so every layer can import it without cycles.
"""

from __future__ import annotations

import enum
import importlib
from dataclasses import dataclass

from repro.errors import ConfigurationError


class Tier(enum.Enum):
    """How much of the fast machinery one run may use."""

    REFERENCE = "reference"
    FAST = "fast"
    VECTOR = "vector"


@dataclass(frozen=True)
class Seam:
    """One fast/reference implementation pair.

    Attributes:
        name: stable key (``"slot-resolver"``).
        tier: the lowest tier that runs the fast side; ``REFERENCE``
            always runs the twin, so a seam's tier is ``FAST`` or
            ``VECTOR``.
        fast: dotted path of the optimized implementation.
        reference: dotted path of its byte-identical reference twin.
        differential_test: repo-relative test file pinning the pair
            (the static analyzer verifies it exists and names the seam).
        description: one line for humans.
    """

    name: str
    tier: Tier
    fast: str
    reference: str
    differential_test: str
    description: str = ""

    def __post_init__(self) -> None:
        for field_name in ("name", "fast", "reference", "differential_test"):
            if not getattr(self, field_name):
                raise ConfigurationError(
                    f"seam field {field_name!r} must be non-empty"
                )
        if self.tier not in (Tier.FAST, Tier.VECTOR):
            raise ConfigurationError(
                f"seam {self.name!r} runs its fast side at tier "
                f"{self.tier!r}; it must be Tier.FAST or Tier.VECTOR so a "
                "Tier.REFERENCE run exercises the reference twin"
            )


#: Every seam the tree ships, in name order.
SEAMS = (
    Seam(
        name="flat-engines",
        tier=Tier.FAST,
        fast="repro.protocols.flat.FlatThresholdEngine",
        reference="repro.protocols.base.BroadcastNode.on_receive",
        differential_test="tests/test_scenario_fastpath.py",
        description="flat array protocol engines vs per-node objects",
    ),
    Seam(
        name="grid-build",
        tier=Tier.FAST,
        fast="repro.network.grid.Grid._build_neighbors_numpy",
        reference="repro.network.grid.Grid._build_neighbors",
        differential_test="tests/test_vectorized.py",
        description="NumPy CSR neighbor-table build vs the python build",
    ),
    Seam(
        name="round-driver",
        tier=Tier.FAST,
        fast="repro.radio.mac.RoundDriver._run_round_fast",
        reference="repro.radio.mac.RoundDriver._run_round_reference",
        differential_test="tests/test_scenario_fastpath.py",
        description="batched round loop (burst dedup, coalescing inside the "
        "adversary's quiet horizon, sender compaction, budget-gated "
        "consultation) vs the per-delivery reference loop",
    ),
    Seam(
        name="slot-resolver",
        tier=Tier.FAST,
        fast="repro.radio.medium.Medium.resolve_slot",
        reference="repro.radio.medium.Medium.resolve_slot_reference",
        differential_test="tests/test_radio_medium.py",
        description="CSR flat-buffer slot resolution vs the dict reference",
    ),
    Seam(
        name="vector-kernel",
        tier=Tier.VECTOR,
        fast="repro.protocols.vectorized.try_vector_run",
        reference="repro.protocols.flat.FlatThresholdEngine",
        differential_test="tests/test_vectorized.py",
        description="NumPy whole-grid round kernel vs the flat/reference "
        "engines",
    ),
    Seam(
        name="warm-world",
        tier=Tier.FAST,
        fast="repro.scenario.runner._world_for",
        reference="repro.network.grid.Grid",
        differential_test="tests/test_scenario_fastpath.py",
        description="process-local warm Grid/Medium/NodeTable reuse vs a "
        "cold world per run",
    ),
)


# -- chaos injection points ----------------------------------------------------

#: The fault kinds :mod:`repro.chaos` can inject. Every kind must be
#: claimed by a registered :class:`ChaosPoint`; ``repro chaos run``
#: fails loudly on an injectable kind with no injection site.
CHAOS_KINDS = (
    "cache-corrupt",
    "cache-write-fail",
    "connection-reset",
    "worker-crash",
    "worker-slow",
)


@dataclass(frozen=True)
class ChaosPoint:
    """One deterministic fault-injection site.

    The chaos analogue of :class:`Seam`: where a seam pins a fast path to
    its reference twin, a chaos point pins an infrastructure fault to the
    recovery path that must absorb it byte-identically. Sites register at
    module bottom (the idiom of :mod:`repro.scenario.registries`) so
    ``repro chaos`` can enumerate coverage without hard-coded lists.

    Attributes:
        name: stable registry key (``"pool-worker"``).
        module: dotted module whose code calls the injection hook.
        hook: dotted path of the :mod:`repro.chaos.inject` hook fired
            at this site.
        kinds: the :data:`CHAOS_KINDS` entries this site can inject.
        description: one line for humans.
    """

    name: str
    module: str
    hook: str
    kinds: tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        for field_name in ("name", "module", "hook"):
            if not getattr(self, field_name):
                raise ConfigurationError(
                    f"chaos point field {field_name!r} must be non-empty"
                )
        if not self.kinds:
            raise ConfigurationError(
                f"chaos point {self.name!r} must declare at least one kind"
            )
        unknown = [kind for kind in self.kinds if kind not in CHAOS_KINDS]
        if unknown:
            raise ConfigurationError(
                f"chaos point {self.name!r} declares unknown fault kinds "
                f"{', '.join(unknown)}; known: {', '.join(CHAOS_KINDS)}"
            )


_CHAOS: dict[str, ChaosPoint] = {}


def register_chaos(point: ChaosPoint) -> ChaosPoint:
    """Register a chaos point; duplicate names are rejected."""
    if point.name in _CHAOS:
        raise ConfigurationError(
            f"chaos point {point.name!r} is already registered"
        )
    _CHAOS[point.name] = point
    return point


def chaos_names() -> tuple[str, ...]:
    return tuple(sorted(_CHAOS))


def all_chaos_points() -> tuple[ChaosPoint, ...]:
    """Every registered chaos point, in stable (name-sorted) order."""
    return tuple(_CHAOS[name] for name in sorted(_CHAOS))


#: The modules that register chaos points at import time.
CHAOS_SITE_MODULES = (
    "repro.runner.parallel",
    "repro.serve.http",
)


def load_chaos_sites() -> tuple[ChaosPoint, ...]:
    """Import every known chaos site, then return all registered points."""
    for module in CHAOS_SITE_MODULES:
        importlib.import_module(module)
    return all_chaos_points()


def chaos_kinds_covered() -> frozenset[str]:
    """Fault kinds claimed by the registered (loaded) chaos points."""
    covered: set[str] = set()
    for point in load_chaos_sites():
        covered.update(point.kinds)
    return frozenset(covered)
