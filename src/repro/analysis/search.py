"""Adaptive frontier search over scenario axes, riding the sweep substrate.

The paper's central empirical object is the success/failure frontier in
``(t, m, mf, grid, placement)`` space: Theorems 1 and 2 bracket the
minimum working good-node budget between ``m0`` and ``2*m0``, and the
same bracketing question exists along the adversary's axes (how much
density ``t``, how much budget ``mf`` a fixed scenario tolerates).

This module locates those frontiers *empirically*:

- :class:`AxisSearch` is an incremental bisection driver for one spec
  axis (``"m"``, ``"t"``, ``"mf"``). It emits probe :class:`ScenarioSpec`
  batches and consumes outcomes, so a caller can schedule any number of
  concurrent searches through :func:`repro.runner.parallel.probe_batch`
  — every probe is cache-keyed by ``spec.content_hash()`` and re-runs
  are incremental. The scenario atlas (:mod:`repro.analysis.atlas`)
  drives many of these at once.
- :func:`frontier_search` runs a single axis search to completion.
- :func:`find_min_working_budget` is the historical minimum-budget
  bisection, run on cached ``run(spec)`` probes.

Monotonicity — more good budget never hurts, more adversary never helps
— is an empirical property of our adversaries, not a theorem. The
search therefore never silently bisects past a non-monotone profile: a
bracket endpoint with the wrong outcome is reported in the result's
``note``, every refined probe is kept, and any adjacent (better-config
fails, worse-config succeeds) pair is surfaced as a
:class:`MonotonicityViolation` instead of being averaged away.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.analysis.bounds import m0, max_locally_bounded_t
from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runner.parallel import ResultCache
    from repro.scenario.runner import ScenarioOutcome
    from repro.scenario.spec import ScenarioSpec

#: How far past an invalid domain endpoint the search steps looking for
#: a runnable value before declaring the axis empty.
_VALID_SCAN_LIMIT = 8


# -- probe results -------------------------------------------------------------


@dataclass(frozen=True)
class AxisProbe:
    """One executed probe along an axis (in axis-value order of meaning).

    Carries the quantitative outcome, not just the verdict, so atlas
    tables can show *how* a configuration failed (partial coverage vs
    total starvation) without re-running anything.
    """

    value: int
    success: bool
    decided_good: int
    total_good: int
    rounds: int


@dataclass(frozen=True)
class MonotonicityViolation:
    """An adjacent probe pair contradicting the assumed monotone profile.

    ``succeeded_at`` is the axis value that succeeded although
    ``failed_at`` — a strictly *more favorable* configuration (more
    budget on an increasing axis, less adversary on a decreasing one) —
    failed. Reported pairs are adjacent in sorted probe order, so each
    names one concrete boundary inversion.
    """

    axis: str
    succeeded_at: int
    failed_at: int


@dataclass(frozen=True)
class AxisFrontier:
    """Verified frontier of one scenario axis.

    ``frontier`` is the boundary of the empirical success region: the
    smallest working value on an increasing axis (``m``), the largest
    working value on a decreasing one (``t``, ``mf``); ``None`` when no
    probed value succeeded above every probed failure. ``last_failing``
    is the adjacent failing value (``None`` when the whole probed domain
    works). ``invalid`` lists values whose spec could not be built or
    validated (out of the model's domain). A non-empty ``violations``
    means the profile is not monotone and ``frontier`` is only the
    *conservative* boundary (above/below every observed failure).
    """

    axis: str
    increasing: bool
    frontier: int | None
    last_failing: int | None
    probes: tuple[AxisProbe, ...]
    invalid: tuple[int, ...]
    violations: tuple[MonotonicityViolation, ...]
    evaluations: int
    note: str = ""


@dataclass(frozen=True)
class BudgetSearchResult:
    """Outcome of a minimum-budget bisection (historical API)."""

    min_working_m: int
    max_failing_m: int | None
    evaluations: int
    tested: tuple[tuple[int, bool], ...]  # (m, success) pairs, in test order


# -- axis definitions ----------------------------------------------------------


def _retarget_placement(placement: Any, t: int) -> Any:
    """A copy of ``placement`` re-parameterized for adversary density ``t``.

    Placements that carry their own ``t`` field (stripes, random
    locally-bounded) scale with the axis; compositions retarget each
    part; explicit/derived placements without a density knob (e.g. the
    Figure-2 lattice) are returned unchanged — for those the ``t`` axis
    varies only the *declared* bound the protocol defends against.
    """
    from repro.adversary.placement import CombinedPlacement

    if isinstance(placement, CombinedPlacement):
        return dataclasses.replace(
            placement,
            parts=tuple(_retarget_placement(part, t) for part in placement.parts),
        )
    if dataclasses.is_dataclass(placement) and any(
        field.name == "t" for field in dataclasses.fields(placement)
    ):
        return dataclasses.replace(placement, t=t)
    return placement


class FrontierAxis:
    """One searchable scenario axis: how to mutate a spec and its bounds.

    ``increasing`` states the assumed monotone direction: ``True`` means
    success becomes *more* likely as the value grows (good budget),
    ``False`` the opposite (adversary knobs). ``bounds`` returns
    ``(domain_min, soft_cap, hard_cap)``: bisection starts on
    ``[domain_min, soft_cap]`` and the cap doubles toward ``hard_cap``
    while the bracket's far end keeps refusing to flip.
    """

    name: str = ""
    increasing: bool = True
    description: str = ""

    def apply(self, spec: "ScenarioSpec", value: int) -> "ScenarioSpec":
        raise NotImplementedError

    def bounds(self, spec: "ScenarioSpec") -> tuple[int, int, int]:
        raise NotImplementedError


class GoodBudgetAxis(FrontierAxis):
    """``m``: per-good-node budget; success is monotone increasing."""

    name = "m"
    increasing = True
    description = "good-node budget (min working value; paper brackets [m0, 2*m0])"

    def apply(self, spec: "ScenarioSpec", value: int) -> "ScenarioSpec":
        return spec.replace(m=value)

    def bounds(self, spec: "ScenarioSpec") -> tuple[int, int, int]:
        sufficient = 2 * m0(spec.grid.r, spec.t, spec.mf)
        soft = max(sufficient, spec.m or 0, 1)
        return 0, soft, 2 * soft + 8


class AdversaryBudgetAxis(FrontierAxis):
    """``mf``: per-bad-node budget; success is monotone decreasing."""

    name = "mf"
    increasing = False
    description = "per-bad-node budget (max value the scenario tolerates)"

    def apply(self, spec: "ScenarioSpec", value: int) -> "ScenarioSpec":
        return spec.replace(mf=value)

    def bounds(self, spec: "ScenarioSpec") -> tuple[int, int, int]:
        return 0, 2 * spec.mf + 2, 8 * spec.mf + 8


class DensityAxis(FrontierAxis):
    """``t``: adversary density per neighborhood; success decreasing."""

    name = "t"
    increasing = False
    description = "adversary density t (max value the scenario tolerates)"

    def apply(self, spec: "ScenarioSpec", value: int) -> "ScenarioSpec":
        return spec.replace(
            t=value, placement=_retarget_placement(spec.placement, value)
        )

    def bounds(self, spec: "ScenarioSpec") -> tuple[int, int, int]:
        cap = max_locally_bounded_t(spec.grid.r)
        return 0, cap, cap


#: Registry of searchable axes by name (the atlas iterates this order).
FRONTIER_AXES: dict[str, FrontierAxis] = {
    axis.name: axis
    for axis in (GoodBudgetAxis(), DensityAxis(), AdversaryBudgetAxis())
}


def default_validator(spec: "ScenarioSpec") -> bool:
    """True when ``spec`` is runnable (registries, bounds, placement)."""
    from repro.scenario.runner import validate

    try:
        validate(spec)
    except ReproError:
        return False
    return True


# -- the incremental axis search -----------------------------------------------

# Internally the search works in *unified coordinates* ``u``: for an
# increasing axis ``u = value``, for a decreasing one ``u = -value``, so
# success is always expected to be monotone nondecreasing in ``u`` and a
# single bisection loop serves both directions.

_BRACKET = "bracket"
_EXPAND = "expand"
_BISECT = "bisect"
_REFINE = "refine"
_DONE = "done"


class AxisSearch:
    """Incremental frontier bisection along one axis of one scenario.

    The protocol is generation-based so many searches can share probe
    batches:

    1. read :attr:`pending` — the specs this search needs next (empty
       only when :attr:`done`);
    2. run them (typically through
       :func:`repro.runner.parallel.probe_batch` together with every
       other live search's pending specs);
    3. :meth:`feed` the outcomes back, keyed by ``spec.content_hash()``;
    4. repeat until :attr:`done`, then take :meth:`result`.

    ``refine`` widens the final pass: after bisection converges, every
    unprobed valid value within ``refine`` of the frontier is probed in
    one batch, so boundary inversions (monotonicity violations) near the
    frontier are *detected* rather than assumed away.
    """

    def __init__(
        self,
        spec: "ScenarioSpec",
        axis: str | FrontierAxis,
        *,
        refine: int = 1,
        validator: Callable[["ScenarioSpec"], bool] = default_validator,
    ) -> None:
        if isinstance(axis, str):
            try:
                axis = FRONTIER_AXES[axis]
            except KeyError:
                known = ", ".join(sorted(FRONTIER_AXES))
                raise ConfigurationError(
                    f"unknown frontier axis {axis!r}; known axes: {known}"
                ) from None
        if refine < 0:
            raise ConfigurationError(f"refine must be >= 0, got {refine}")
        self.spec = spec
        self.axis = axis
        self.refine = refine
        self._validator = validator
        self._sign = 1 if axis.increasing else -1
        domain_min, soft_cap, hard_cap = axis.bounds(spec)
        if not domain_min <= soft_cap <= hard_cap:
            raise ConfigurationError(
                f"axis {axis.name!r} produced an invalid domain "
                f"({domain_min}, {soft_cap}, {hard_cap})"
            )
        self._domain_min = domain_min
        self._cap = soft_cap
        self._hard_cap = hard_cap
        self._probes: dict[int, AxisProbe] = {}  # by axis value
        self._order: list[int] = []  # probe order, for the report
        self._invalid: list[int] = []
        self._specs: dict[int, "ScenarioSpec"] = {}
        self._note = ""
        # Bisection bracket in unified coordinates, set once established.
        self._u_fail: int | None = None
        self._u_succ: int | None = None
        self._state = _BRACKET
        self._pending: list[tuple[int, "ScenarioSpec", str]] = []
        self._request_bracket()

    # -- public protocol -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._state == _DONE

    @property
    def pending(self) -> list["ScenarioSpec"]:
        """Specs this search wants probed next (deduplicated upstream)."""
        return [spec for _value, spec, _key in self._pending]

    def feed(self, outcomes: Mapping[str, "ScenarioOutcome"]) -> None:
        """Consume probe outcomes (keyed by spec content hash) and advance.

        ``outcomes`` may contain results this search never asked for
        (shared batches); missing results for pending probes raise — a
        scheduler must answer a whole generation at once.
        """
        if self._state == _DONE or not self._pending:
            return
        fed = []
        for value, spec, key in self._pending:
            try:
                outcome = outcomes[key]
            except KeyError:
                raise ConfigurationError(
                    f"axis {self.axis.name!r} search fed an incomplete "
                    f"generation: no outcome for value {value}"
                ) from None
            probe = AxisProbe(
                value=value,
                success=bool(outcome.success),
                decided_good=outcome.decided_good,
                total_good=outcome.total_good,
                rounds=outcome.rounds,
            )
            self._probes[value] = probe
            self._order.append(value)
            fed.append(probe)
        self._pending = []
        self._advance()

    def result(self) -> AxisFrontier:
        """The frontier found so far (final once :attr:`done`)."""
        frontier, last_failing = self._frontier()
        return AxisFrontier(
            axis=self.axis.name,
            increasing=self.axis.increasing,
            frontier=frontier,
            last_failing=last_failing,
            probes=tuple(self._probes[v] for v in self._order),
            invalid=tuple(self._invalid),
            violations=self._violations(),
            evaluations=len(self._order),
            note=self._note,
        )

    # -- internals -------------------------------------------------------------

    def _value_of(self, u: int) -> int:
        return self._sign * u

    def _valid_spec(self, value: int) -> "ScenarioSpec | None":
        """Build + validate the probe spec for ``value`` (memoized)."""
        if value in self._specs:
            return self._specs[value]
        if value in self._invalid:
            return None
        try:
            spec = self.axis.apply(self.spec, value)
        except ReproError:
            self._invalid.append(value)
            return None
        if not self._validator(spec):
            self._invalid.append(value)
            return None
        self._specs[value] = spec
        return spec

    def _first_valid(
        self, value: int, step: int, *, limit: int = _VALID_SCAN_LIMIT
    ) -> int | None:
        """First runnable value scanning from ``value`` by ``step``."""
        lo, hi = self._domain_min, self._cap
        for _ in range(limit):
            if not lo <= value <= hi:
                return None
            if self._valid_spec(value) is not None:
                return value
            value += step
        return None

    def _request(self, values: list[int]) -> None:
        self._pending = [
            (value, self._specs[value], self._specs[value].content_hash())
            for value in values
        ]

    def _request_bracket(self) -> None:
        """Queue the two domain endpoints (stepped inward past invalids)."""
        low = self._first_valid(self._domain_min, +1)
        high = self._first_valid(self._cap, -1)
        if low is None or high is None or low >= high:
            if low is not None and low == high:
                # One-point domain: probe it alone and conclude.
                self._state = _REFINE
                self._request([low])
                return
            self._note = "no valid probe values in the axis domain"
            self._state = _DONE
            return
        self._state = _BRACKET
        self._request([low, high])

    def _advance(self) -> None:
        if self._state == _BRACKET:
            self._advance_bracket()
        elif self._state == _EXPAND:
            self._advance_bracket()  # same logic: re-examine the endpoints
        elif self._state == _BISECT:
            self._advance_bisect()
        elif self._state == _REFINE:
            self._state = _DONE
        if self._state == _DONE and not self._note:
            frontier, _ = self._frontier()
            if frontier is None:
                self._note = "no working value found in the probed domain"

    def _advance_bracket(self) -> None:
        """Classify the endpoint probes; expand, bisect, refine, or stop."""
        us = sorted(self._sign * v for v in self._probes)
        u_lo, u_hi = us[0], us[-1]
        lo_success = self._probes[self._value_of(u_lo)].success
        hi_success = self._probes[self._value_of(u_hi)].success
        if not hi_success and not lo_success:
            # No success anywhere yet. On an increasing axis more budget
            # past the soft cap may still work: double toward the hard
            # cap. On a decreasing axis even the least-adversary end
            # failed, so there is nothing left to try.
            if self.axis.increasing and self._cap < self._hard_cap:
                self._cap = min(2 * self._cap + 1, self._hard_cap)
                candidate = self._first_valid(self._cap, -1)
                if candidate is not None and candidate not in self._probes:
                    self._state = _EXPAND
                    self._request([candidate])
                    return
            self._note = (
                "every probed value failed"
                if self.axis.increasing
                else "no tolerated value found (fails even at the domain floor)"
            )
            self._state = _DONE
            return
        if lo_success and hi_success:
            # Whole bracket succeeds. On a decreasing axis the success
            # region may extend past the soft cap — expand toward the
            # hard cap hunting for the first failure; on an increasing
            # axis success at the domain floor ends the search.
            if not self.axis.increasing and self._cap < self._hard_cap:
                self._cap = min(2 * self._cap + 1, self._hard_cap)
                candidate = self._first_valid(self._cap, -1)
                if candidate is not None and candidate not in self._probes:
                    self._state = _EXPAND
                    self._request([candidate])
                    return
            if not self.axis.increasing and self._cap >= self._hard_cap:
                self._note = "bracket saturated: succeeds up to the domain cap"
            self._start_refine()
            return
        if lo_success and not hi_success:
            # Inverted endpoints: the assumed monotone direction is
            # wrong for this scenario. Refuse to bisect a profile the
            # invariant doesn't hold for; report what was seen.
            self._note = (
                "endpoint outcomes invert the assumed monotone direction"
            )
            self._start_refine()
            return
        self._u_fail = u_lo
        self._u_succ = u_hi
        self._state = _BISECT
        self._advance_bisect()

    def _advance_bisect(self) -> None:
        assert self._u_fail is not None and self._u_succ is not None
        # Maintain the invariant from the newest probes: the bracket
        # tightens to the tested midpoint on the matching side.
        for value in reversed(self._order):
            u = self._sign * value
            if self._u_fail < u < self._u_succ:
                if self._probes[value].success:
                    self._u_succ = u
                else:
                    self._u_fail = u
                break
        while self._u_succ - self._u_fail > 1:
            u_mid = (self._u_fail + self._u_succ) // 2
            # Scan outward from the midpoint for a runnable value
            # strictly inside the bracket.
            candidate = None
            for offset in range(self._u_succ - self._u_fail):
                for u_try in (u_mid + offset, u_mid - offset):
                    if not self._u_fail < u_try < self._u_succ:
                        continue
                    value = self._value_of(u_try)
                    if value in self._probes:
                        continue
                    if self._valid_spec(value) is not None:
                        candidate = value
                        break
                if candidate is not None:
                    break
            if candidate is None:
                break  # nothing runnable strictly inside: bracket is tight
            self._request([candidate])
            return
        self._start_refine()

    def _start_refine(self) -> None:
        """Probe unprobed valid values near the frontier, all in one batch."""
        frontier, _ = self._frontier()
        center = frontier
        if center is None:
            # No success region: refine around the best-covered failure
            # so the report shows the shape of the loss, not a void.
            if not self._probes:
                self._state = _DONE
                return
            center = max(
                self._probes.values(),
                key=lambda p: (p.decided_good, -p.value * self._sign),
            ).value
        wanted = []
        for delta in range(-self.refine, self.refine + 1):
            value = center + delta
            if not self._domain_min <= value <= self._cap:
                continue
            if value in self._probes or value in self._invalid:
                continue
            if self._valid_spec(value) is not None:
                wanted.append(value)
        if not wanted:
            self._state = _DONE
            return
        self._state = _REFINE
        self._request(sorted(wanted))

    def _frontier(self) -> tuple[int | None, int | None]:
        """(frontier, last_failing) from all probes, conservatively.

        The frontier is the smallest success (in unified coordinates)
        strictly above every failure — i.e. the boundary consistent with
        *all* observations. Violations below it are reported separately.
        """
        fail_us = [
            self._sign * p.value for p in self._probes.values() if not p.success
        ]
        succ_us = [
            self._sign * p.value for p in self._probes.values() if p.success
        ]
        if not succ_us:
            return None, (
                self._value_of(max(fail_us)) if fail_us else None
            )
        max_fail = max(fail_us) if fail_us else None
        if max_fail is None:
            return self._value_of(min(succ_us)), None
        above = [u for u in succ_us if u > max_fail]
        if not above:
            return None, self._value_of(max_fail)
        return self._value_of(min(above)), self._value_of(max_fail)

    def _violations(self) -> tuple[MonotonicityViolation, ...]:
        ordered = sorted(self._probes.values(), key=lambda p: self._sign * p.value)
        found = []
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.success and not later.success:
                found.append(
                    MonotonicityViolation(
                        axis=self.axis.name,
                        succeeded_at=earlier.value,
                        failed_at=later.value,
                    )
                )
        return tuple(found)


def frontier_search(
    spec: "ScenarioSpec",
    axis: str | FrontierAxis,
    *,
    refine: int = 1,
    workers: int | None = 1,
    cache: "ResultCache | None" = None,
) -> AxisFrontier:
    """Run one axis search to completion through the sweep substrate.

    Every probe goes through :func:`repro.runner.parallel.probe_batch`
    with ``run_summary``, so results are cache-keyed by content hash and
    an immediate re-run answers from the cache.
    """
    from repro.runner.parallel import probe_batch
    from repro.scenario.runner import run_summary

    search = AxisSearch(spec, axis, refine=refine)
    while not search.done:
        pending = search.pending
        batch = probe_batch(pending, run_summary, workers=workers, cache=cache)
        search.feed(
            {
                s.content_hash(): outcome
                for s, outcome in zip(pending, batch.results)
            }
        )
    return search.result()


# -- historical minimum-budget API ---------------------------------------------


def find_min_working_budget(
    base: "ScenarioSpec",
    *,
    low: int = 1,
    high: int,
    cache: "ResultCache | None" = None,
) -> BudgetSearchResult:
    """Bisect the smallest ``m`` for which the scenario succeeds.

    ``base`` supplies everything but ``m``. ``high`` must succeed (use
    ``2*m0`` per Theorem 2); if even ``low`` succeeds the result is
    ``low`` with ``max_failing_m=None``.

    Probes execute through the shared sweep substrate: with ``cache``
    set, each probe is memoized on disk by the probe spec's content
    hash, so repeating or widening a search only computes new budgets.
    """
    if low < 1 or high < low:
        raise ConfigurationError(f"invalid bracket [{low}, {high}]")

    from repro.runner.parallel import probe_batch
    from repro.scenario.runner import run_summary

    def probe(m: int) -> bool:
        batch = probe_batch(
            [base.replace(m=m)], run_summary, workers=1, cache=cache
        )
        return bool(batch.results[0].success)

    tested: list[tuple[int, bool]] = []

    def succeeds(m: int) -> bool:
        success = probe(m)
        tested.append((m, success))
        return success

    if not succeeds(high):
        raise ConfigurationError(
            f"bracket top m={high} fails; pick a sufficient upper bound "
            f"(Theorem 2's 2*m0 is guaranteed)"
        )
    if succeeds(low):
        return BudgetSearchResult(
            min_working_m=low,
            max_failing_m=None,
            evaluations=len(tested),
            tested=tuple(tested),
        )

    lo, hi = low, high  # lo fails, hi succeeds: invariant of the loop
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return BudgetSearchResult(
        min_working_m=hi,
        max_failing_m=lo,
        evaluations=len(tested),
        tested=tuple(tested),
    )
