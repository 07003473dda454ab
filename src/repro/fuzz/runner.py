"""Differential case execution for the fuzz subsystem.

One fuzz *case* runs a sampled :class:`~repro.scenario.spec.ScenarioSpec`
twice — once at ``Tier.FAST`` (batched round driver, flat protocol
engines, fast slot resolver, warm world) and once at ``Tier.REFERENCE``
(every historical reference implementation, see :mod:`repro.seams`) —
and then:

1. asserts the two :class:`~repro.runner.report.BroadcastReport` objects
   are identical in every observable (outcome, costs, statistics, and
   the per-node protocol state the reference implementations maintain);
2. checks every applicable :mod:`repro.fuzz.oracles` invariant on *both*
   reports.

When NumPy is installed a third leg runs at ``Tier.VECTOR``, which adds
the whole-grid kernel (:mod:`repro.protocols.vectorized`), and is
compared against the reference report the same way — every sampled
case then cross-checks vectorized vs flat vs reference.

A deterministic slice of cases (selected by content hash, so the CI
digest repeats across worker counts) additionally runs a **chaos leg**:
the same spec swept repeatedly over a throwaway result cache with a
fixed :class:`repro.chaos.FaultPlan` armed (a failed cache store, then a
truncated cache entry), asserting every recovery path still produces the
fault-free bytes.

Any violation is a *failure*: the case's spec is greedily shrunk
(:func:`shrink_spec`) toward a smaller scenario that still fails, which
the corpus layer writes out as a replayable JSON repro.

Cases are picklable (:class:`FuzzCase`) and executed by a module-level
function (:func:`run_case`), so fuzzing rides
:func:`repro.runner.parallel.sweep` — workers, progress, determinism —
exactly like every other workload in this repository.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import repro.protocols.vectorized as vectorized
import repro.scenario.runner as scenario_runner
from repro.adversary.placement import BernoulliPlacement, RandomPlacement
from repro.chaos import inject as chaos_inject
from repro.chaos.plan import Fault, FaultPlan
from repro.errors import ConfigurationError, ReproError
from repro.fuzz.oracles import OracleContext, check_invariants
from repro.network.grid import GridSpec
from repro.runner.parallel import ResultCache, encode_result
from repro.runner.parallel import sweep as cache_sweep
from repro.scenario.runner import run as run_scenario
from repro.scenario.runner import validate
from repro.scenario.spec import ScenarioSpec
from repro.seams import Tier


def _run_mode(spec: ScenarioSpec, *, fast: bool, vector: bool = False):
    """Run ``spec`` at ``Tier.FAST`` (``fast``) or ``Tier.REFERENCE``.

    ``vector=True`` (implies ``fast``) runs at ``Tier.VECTOR``, where the
    NumPy whole-grid kernel engages only for eligible specs, so a
    vector-mode report may still come from the flat engine; callers
    that need to know check ``isinstance(report.nodes,
    vectorized.LazyNodeMap)``. Plain fast runs stay at ``Tier.FAST`` so
    the flat engines remain under test.

    Returns ``(report, medium)``; the medium is only captured for warm
    fast runs (it feeds the delivery-batch immutability oracle).
    """
    if not fast:
        return run_scenario(spec, tier=Tier.REFERENCE), None
    report = run_scenario(spec, tier=Tier.VECTOR if vector else Tier.FAST)
    return report, scenario_runner._world_for(spec)[2]


# -- report comparison ---------------------------------------------------------


def compare_reports(fast: Any, reference: Any) -> list[str]:
    """Describe every observable difference between two runs of one spec.

    The byte-identical contract of the fast-path PRs, as data instead of
    assertions: an empty list means the reports agree on outcome, costs,
    statistics, and per-node protocol state (decision plus whichever of
    ``received_total`` / ``value_counts`` / ``endorsements`` the node
    class maintains).
    """
    failures: list[str] = []
    if fast.outcome != reference.outcome:
        failures.append(
            f"outcome differs: fast={fast.outcome} reference={reference.outcome}"
        )
    if fast.costs != reference.costs:
        failures.append(
            f"costs differ: fast={fast.costs} reference={reference.costs}"
        )
    if fast.stats != reference.stats:
        failures.append(
            f"stats differ: fast={fast.stats} reference={reference.stats}"
        )
    for nid, ref_node in reference.nodes.items():
        node = fast.nodes[nid]
        for attr in ("decided", "accepted_value", "decide_round"):
            if getattr(node, attr) != getattr(ref_node, attr):
                failures.append(
                    f"node {nid} {attr} differs: fast="
                    f"{getattr(node, attr)!r} reference={getattr(ref_node, attr)!r}"
                )
        if hasattr(ref_node, "received_total") and (
            node.received_total != ref_node.received_total
        ):
            failures.append(
                f"node {nid} received_total differs: "
                f"fast={node.received_total} reference={ref_node.received_total}"
            )
        if hasattr(ref_node, "value_counts") and (
            node.value_counts != ref_node.value_counts
        ):
            failures.append(f"node {nid} value_counts differ")
        if hasattr(ref_node, "endorsements") and (
            dict(node.endorsements) != dict(ref_node.endorsements)
        ):
            failures.append(f"node {nid} endorsements differ")
        if len(failures) >= 8:
            failures.append("... (further node differences suppressed)")
            break
    return failures


#: One in this many cases (chosen by content hash, not randomness, so
#: the fixed-seed CI digest is identical for any worker count) also runs
#: the chaos leg.
_CHAOS_GATE = 8

#: The fixed chaos-leg schedule: a failed store, then a mangled entry.
_CHAOS_PLAN = FaultPlan(
    seed=0,
    faults=(
        Fault(kind="cache-write-fail", mode="enospc"),
        Fault(kind="cache-corrupt", mode="truncate"),
    ),
)


def _chaos_gated(spec: ScenarioSpec) -> bool:
    return int(spec.content_hash()[:2], 16) % _CHAOS_GATE == 0


def _result_bytes(outcome: Any) -> bytes:
    return json.dumps(
        encode_result(outcome), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _chaos_probe(spec: ScenarioSpec) -> list[str]:
    """Chaos leg: cached sweeps under injected cache faults stay byte-stable.

    Four sweeps of the same point over one throwaway cache walk every
    cache recovery path in order — store fails (ENOSPC), store lands,
    entry found truncated (recompute + overwrite), clean cache hit — and
    each one must serialize to the fault-free golden bytes.
    """
    golden = _result_bytes(scenario_runner.run_summary(spec))
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-chaos-") as cache_dir:
        cache = ResultCache(cache_dir, namespace="scenario")
        with chaos_inject.armed(_CHAOS_PLAN):
            for attempt in range(4):
                result = cache_sweep(
                    [spec], scenario_runner.run_summary, workers=1, cache=cache
                )
                got = _result_bytes(result.results[0])
                if got != golden:
                    failures.append(
                        f"[chaos] sweep attempt {attempt} under "
                        f"{_CHAOS_PLAN.describe()} diverged from the "
                        "fault-free bytes"
                    )
        if cache.stats.recovered < 1:
            failures.append(
                "[chaos] the corrupted cache entry was never detected and "
                "recovered (ResultCache.stats.recovered stayed 0)"
            )
    return failures


def check_spec(spec: ScenarioSpec) -> list[str]:
    """All failures of one spec: differential mismatches + oracle hits."""
    # Fresh warm-world caches per case: the fast run still exercises the
    # warm path *within* its own run, but the medium the immutability
    # oracle inspects holds only this case's memoized batches — a
    # mutation found here is this spec's doing, so the shrunk repro
    # reproduces in a cold process (the corpus replay contract).
    scenario_runner._GRIDS.clear()
    scenario_runner._MEDIA.clear()
    scenario_runner._TABLES.clear()
    try:
        fast_report, medium = _run_mode(spec, fast=True)
    except Exception as exc:  # a crash is itself a finding
        return [f"[fast] run raised {type(exc).__name__}: {exc}"]
    try:
        reference_report, _ = _run_mode(spec, fast=False)
    except Exception as exc:
        return [f"[reference] run raised {type(exc).__name__}: {exc}"]
    failures = compare_reports(fast_report, reference_report)
    failures.extend(
        check_invariants(
            OracleContext(spec=spec, report=fast_report, medium=medium, mode="fast")
        )
    )
    failures.extend(
        check_invariants(
            OracleContext(spec=spec, report=reference_report, mode="reference")
        )
    )
    # Third leg of the differential: the NumPy whole-grid kernel. For
    # kernel-ineligible specs this replays the flat path (still a valid
    # determinism check); eligible ones cross-check the kernel proper.
    if vectorized.available():
        try:
            vector_report, vector_medium = _run_mode(spec, fast=True, vector=True)
        except Exception as exc:
            failures.append(f"[vector] run raised {type(exc).__name__}: {exc}")
            return failures
        failures.extend(
            f"[vector] {message}"
            for message in compare_reports(vector_report, reference_report)
        )
        failures.extend(
            check_invariants(
                OracleContext(
                    spec=spec,
                    report=vector_report,
                    medium=vector_medium,
                    mode="vector",
                )
            )
        )
    # Chaos leg on a deterministic slice of healthy cases: differential
    # findings above stay unpolluted by injected-fault noise.
    if not failures and _chaos_gated(spec):
        failures.extend(_chaos_probe(spec))
    return failures


# -- the sweep point -----------------------------------------------------------


@dataclass(frozen=True)
class FuzzCase:
    """One picklable fuzz point: a case index plus its sampled spec."""

    index: int
    spec: ScenarioSpec

    def __canonical_json__(self) -> dict:
        return {"index": self.index, "spec": self.spec.to_dict()}


@dataclass(frozen=True)
class CaseResult:
    """Flat, picklable verdict of one fuzz case."""

    index: int
    case_hash: str
    failures: tuple[str, ...]
    rounds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(case: FuzzCase) -> CaseResult:
    """Execute one fuzz case (module-level: spawn-worker safe)."""
    failures = check_spec(case.spec)
    return CaseResult(
        index=case.index,
        case_hash=case.spec.content_hash(),
        failures=tuple(failures),
    )


# -- shrinking -----------------------------------------------------------------


def _shrunk_grids(grid: GridSpec) -> Iterator[GridSpec]:
    side = 2 * grid.r + 1
    if grid.torus:
        for width, height in (
            (max(2 * side, side * (grid.width // side // 2)),
             max(2 * side, side * (grid.height // side // 2))),
            (2 * side, grid.height),
            (grid.width, 2 * side),
        ):
            if (width, height) != (grid.width, grid.height):
                yield GridSpec(width=width, height=height, r=grid.r, torus=True)
    else:
        for width, height in (
            (max(1, grid.width // 2), max(1, grid.height // 2)),
            (max(1, grid.width // 2), grid.height),
            (grid.width, max(1, grid.height // 2)),
        ):
            if (width, height) != (grid.width, grid.height):
                yield GridSpec(width=width, height=height, r=grid.r, torus=False)


def shrink_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Simpler variants of ``spec``, most aggressive reductions first.

    Candidates may be invalid (a halved grid can orphan a stripe) — the
    shrink loop validates before re-running, so this generator only has
    to be *plausible*, not correct.
    """
    for grid in _shrunk_grids(spec.grid):
        yield spec.replace(grid=grid)
    placement = spec.placement
    if isinstance(placement, RandomPlacement) and placement.count > 0:
        yield spec.replace(
            placement=RandomPlacement(
                t=placement.t, count=placement.count // 2, seed=placement.seed
            )
        )
    if isinstance(placement, BernoulliPlacement) and placement.p > 0.01:
        yield spec.replace(
            placement=BernoulliPlacement(p=placement.p / 2, seed=placement.seed)
        )
    if spec.max_rounds is None:
        yield spec.replace(max_rounds=30)
    elif spec.max_rounds > 1:
        yield spec.replace(max_rounds=max(1, spec.max_rounds // 2))
    if spec.mf > 0:
        yield spec.replace(mf=spec.mf // 2)
    if spec.m is not None and spec.m > 1:
        yield spec.replace(m=spec.m // 2)
    if spec.mmax is not None and spec.mmax > 10:
        yield spec.replace(mmax=10)
    if spec.batch_per_slot > 1:
        yield spec.replace(batch_per_slot=1)
    if spec.protected is not None:
        yield spec.replace(protected=None)
    if spec.behavior_params:
        yield spec.replace(behavior_params={})
    if spec.protocol_params:
        yield spec.replace(protocol_params={})


def shrink_spec(
    spec: ScenarioSpec,
    failures: list[str],
    *,
    check: Callable[[ScenarioSpec], list[str]] = check_spec,
    max_attempts: int = 40,
) -> tuple[ScenarioSpec, list[str]]:
    """Greedily minimize a failing spec while it keeps failing.

    Each round tries the candidates of :func:`shrink_candidates` in
    order; the first candidate that still fails becomes the new current
    spec. Stops at a fixpoint (no candidate fails) or after
    ``max_attempts`` re-runs. Returns the minimized spec and its
    failures — always a failing pair (at worst the input itself).
    """
    current, current_failures = spec, list(failures)
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in shrink_candidates(current):
            if attempts >= max_attempts:
                break
            try:
                validate(candidate)
            except ReproError:
                continue
            attempts += 1
            candidate_failures = check(candidate)
            if candidate_failures:
                current, current_failures = candidate, candidate_failures
                progressed = True
                break
    return current, current_failures


# -- validation probes ---------------------------------------------------------


def validation_probes() -> list[str]:
    """Once-per-run checks that *invalid* configurations fail loudly.

    The sampler only emits valid specs, so the rejection edges — bad-node
    density at/over the model bound ``t < r(2r+1)``, unknown scenario
    keys — are probed explicitly here instead.
    """
    failures: list[str] = []
    grid = GridSpec(width=9, height=9, r=1, torus=True)
    placement = RandomPlacement(t=1, count=0, seed=0)
    try:
        # t == r(2r+1) is one past the largest admissible density.
        ScenarioSpec(grid=grid, t=3, mf=1, placement=placement)
    except ConfigurationError:
        pass
    else:
        failures.append("over-bound t = r(2r+1) was not rejected")
    try:
        ScenarioSpec(grid=grid, t=1, mf=1, placement=placement, max_rounds=0)
    except ConfigurationError:
        pass
    else:
        failures.append("max_rounds=0 was not rejected")
    probe = ScenarioSpec(grid=grid, t=1, mf=1, placement=placement)
    payload = probe.to_dict()
    payload["behaviour"] = "jam"
    try:
        ScenarioSpec.from_dict(payload)
    except ConfigurationError as exc:
        if "behavior" not in str(exc):
            failures.append(
                f"unknown-key error does not name the expected field: {exc}"
            )
    else:
        failures.append("unknown scenario key 'behaviour' was not rejected")
    return failures
