"""Equivalence suite for the end-to-end scenario fast path.

The referee for the fast paths: whole scenarios run at
``Tier.REFERENCE`` (reference round loop, per-node protocol state, cold
world per run) and at ``Tier.FAST`` (batched driver + burst dedup +
whole-round memo, flat engines, warm world), and the resulting reports
must be identical in every observable — outcome, costs, stats, and the
per-node state the reference implementations maintain (``value_counts``
/ ``received_total`` / ``endorsements``). Same pattern as the
recorded-traffic suite for ``resolve_slot_reference``.

The base scenario comes from ``tests/strategies.py`` and report equality
is asserted through :func:`repro.fuzz.compare_reports` — the same
comparator the fuzz subsystem applies to sampled scenarios.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings

import repro.protocols.vectorized as vectorized
import repro.scenario.runner as runner_mod
from repro.adversary.placement import RandomPlacement, StripePlacement
from repro.fuzz import compare_reports
from repro.network.grid import GridSpec
from repro.scenario import ScenarioSpec, run
from repro.seams import Tier
from strategies import equivalence_spec as _spec, vector_candidate_specs

needs_numpy = pytest.mark.skipif(
    not vectorized.available(), reason="NumPy not installed"
)


def _run_both(spec):
    # This suite referees the flat engines and the batched driver, so it
    # runs at Tier.FAST: the vectorized kernel has its own triple suite
    # below and would otherwise shadow the machinery under test for
    # eligible scenarios.
    return run(spec, tier=Tier.FAST), run(spec, tier=Tier.REFERENCE)


def _run_triple(spec):
    """(vector, flat, reference) reports of one spec.

    Tier selection goes through the fuzz runner's mode switcher — the
    same one ``repro fuzz`` uses — so property cases here and sampled
    fuzz cases exercise identical machinery.
    """
    from repro.fuzz.runner import _run_mode

    vector, _ = _run_mode(spec, fast=True, vector=True)
    flat_report, _ = _run_mode(spec, fast=True)
    reference, _ = _run_mode(spec, fast=False)
    return vector, flat_report, reference


def _assert_reports_identical(fast, reference):
    assert compare_reports(fast, reference) == []


class TestFlatEngineAndDriverEquivalence:
    """Reference vs fast whole-run equality across protocol/behavior mixes."""

    def test_threshold_jam(self):
        # Stateful-observe adversary: no burst dedup, eager flushes.
        fast, reference = _run_both(_spec(behavior="jam"))
        _assert_reports_identical(fast, reference)

    def test_threshold_lie(self):
        # Spontaneous observe-stateless adversary: dedup with observe off.
        fast, reference = _run_both(_spec(behavior="lie", mf=3))
        _assert_reports_identical(fast, reference)

    def test_threshold_crash_faults(self):
        # NullAdversary with budget: consulted but never transmits.
        fast, reference = _run_both(_spec(behavior="none"))
        _assert_reports_identical(fast, reference)

    def test_cpa_spoof(self):
        # Flat CPA engine (packed seen-set) under forged endorsements.
        spec = _spec(protocol="cpa", behavior="spoof", m=3, batch_per_slot=1)
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)

    def test_koo_jam(self):
        fast, reference = _run_both(
            _spec(protocol="koo", m=None, behavior="jam")
        )
        _assert_reports_identical(fast, reference)

    def test_reactive_coded(self):
        # Queue-based nodes: no flat engine, head-stable peeks only.
        spec = ScenarioSpec(
            grid=GridSpec(width=12, height=12, r=1, torus=True),
            t=1,
            mf=3,
            mmax=10**6,
            placement=RandomPlacement(t=1, count=5, seed=503),
            protocol="reactive",
            seed=3,
        )
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)

    def test_reactive_coded_batched_slots(self):
        # batch_per_slot > 1 with an active jammer: a drained slot owner
        # can be re-armed mid-slot by a jam-induced NACK, so the driver
        # must keep eager flushes and full per-burst owner re-scans
        # (no dedup, no compaction) for queue-based nodes.
        for seed in (0, 1, 2, 3):
            spec = ScenarioSpec(
                grid=GridSpec(width=9, height=9, r=1, torus=True),
                t=1,
                mf=6,
                mmax=10**6,
                placement=RandomPlacement(t=1, count=6, seed=200 + seed),
                protocol="reactive",
                behavior_params={"p_forge": 0.3},
                seed=seed,
                batch_per_slot=3,
            )
            fast, reference = _run_both(spec)
            _assert_reports_identical(fast, reference)

    def test_stripe_protected_band(self):
        spec = _spec(
            t=2,
            mf=2,
            m=3,
            placement=StripePlacement(y0=4, t=2),
            batch_per_slot=3,
        )
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)

    @pytest.mark.slow
    def test_figure2_paper_instance(self):
        # The headline workload: 2001-burst source phase, planned
        # defense, burst dedup with multiplicity through the flat engine.
        from repro.experiments.e2_figure2 import paper_spec

        fast, reference = _run_both(paper_spec())
        _assert_reports_identical(fast, reference)


class TestRoundMemoEquivalence:
    """The whole-round memo path (adversary out of budget) is exact."""

    def test_broke_adversary_replays_rounds(self):
        # mf=0: the adversary is inactive from round one, so every round
        # runs through the predictable path and repeated rounds replay
        # from the medium's round memo.
        spec = _spec(mf=0, behavior="jam", m=6)
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)

    def test_round_memo_actually_hit(self):
        runner_mod._MEDIA.clear()
        runner_mod._GRIDS.clear()
        spec = _spec(mf=0, behavior="jam", m=6)
        report = run(spec, tier=Tier.FAST)
        assert report.stats.rounds > 1
        # The warm medium of this grid now carries memoized rounds.
        medium = runner_mod._world_for(spec)[2]
        assert medium._round_memo

    def test_reactive_quiet_window_survives_silent_rounds(self):
        # Silent predictable rounds must still run on_round_end (the
        # reactive quiet-window countdown is driven by it).
        spec = ScenarioSpec(
            grid=GridSpec(width=9, height=9, r=1, torus=True),
            t=1,
            mf=0,
            mmax=100,
            placement=RandomPlacement(t=1, count=3, seed=7),
            protocol="reactive",
            seed=1,
        )
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)


class TestWarmWorld:
    """Per-process Grid/Medium sharing across runs of one grid shape."""

    def test_grid_and_medium_shared_across_runs(self):
        runner_mod._GRIDS.clear()
        runner_mod._MEDIA.clear()
        spec = _spec()
        first = run(spec, tier=Tier.FAST)
        second = run(spec, tier=Tier.FAST)
        assert first.grid is second.grid  # one CSR build per process
        assert first.outcome == second.outcome
        assert first.costs == second.costs
        assert first.stats == second.stats

    def test_warm_medium_respects_reference_mode(self, monkeypatch):
        # A reference run never reads or fills the warm caches, so it
        # can never be served a fast Medium (or hand one to a fast run).
        import repro.radio.mac as mac

        built = []

        class Recording(mac.Medium):
            def __init__(self, grid, *, fast=True):
                super().__init__(grid, fast=fast)
                built.append(self)

        monkeypatch.setattr(mac, "Medium", Recording)
        runner_mod._GRIDS.clear()
        runner_mod._MEDIA.clear()
        spec = _spec()
        run(spec, tier=Tier.REFERENCE)
        assert len(runner_mod._GRIDS) == 0 and len(runner_mod._MEDIA) == 0
        run(spec, tier=Tier.FAST)
        assert [medium.fast for medium in built] == [False, True]
        assert runner_mod._world_for(spec)[2] is built[1]

    def test_cold_mode_builds_fresh_world(self):
        spec = _spec()
        warm = run(spec, tier=Tier.FAST).grid
        cold = run(spec, tier=Tier.REFERENCE).grid
        assert warm is runner_mod._world_for(spec)[0]
        assert cold is not warm
        assert run(spec, tier=Tier.REFERENCE).grid is not cold


class TestAdversaryBudgetGating:
    """Once no bad node can afford a message, on_slot is never consulted."""

    def test_broke_adversary_not_consulted_but_run_identical(self):
        from repro.adversary.jamming import ThresholdGuardJammer

        calls = {"fast": 0, "reference": 0}

        class CountingJammer(ThresholdGuardJammer):
            mode = "fast"

            def on_slot(self, round_index, slot, honest):
                calls[type(self).mode] += 1
                return super().on_slot(round_index, slot, honest)

        def patched(mode):
            cls = type("Counting", (CountingJammer,), {"mode": mode})
            return lambda grid, table, ledger: cls(
                grid, table, ledger, threshold=3
            )

        spec = _spec(mf=0, behavior="jam", m=6)
        fast = run(spec, tier=Tier.FAST, adversary_override=patched("fast"))
        reference = run(
            spec, tier=Tier.REFERENCE, adversary_override=patched("reference")
        )
        _assert_reports_identical(fast, reference)
        # mf=0 means the adversary could never act: the fast driver skips
        # every consultation, the reference loop performs them all.
        assert calls["fast"] == 0
        assert calls["reference"] > 0


@needs_numpy
class TestTierIsPerCall:
    """The tier is an argument of one call, not state of the process."""

    def test_concurrent_runs_keep_their_own_tier(self):
        # serve's degraded path computes on threads: a reference run and
        # a default (vector) run of one kernel-eligible spec, started
        # together, must each run at the tier they asked for.
        spec = _spec(mf=0, behavior="jam", m=6)
        start = threading.Barrier(2)

        def run_at(**tier):
            start.wait()
            return run(spec, **tier)

        with ThreadPoolExecutor(max_workers=2) as pool:
            reference = pool.submit(run_at, tier=Tier.REFERENCE)
            default = pool.submit(run_at)
            reference, default = reference.result(), default.result()
        assert compare_reports(default, reference) == []
        assert isinstance(default.nodes, vectorized.LazyNodeMap)
        assert not isinstance(reference.nodes, vectorized.LazyNodeMap)


@needs_numpy
class TestVectorKernelTripleDifferential:
    """Vectorized vs flat vs reference: all three backends byte-identical.

    Every assertion goes through :func:`repro.fuzz.compare_reports`, so
    node state (``value_counts`` / ``received_total`` / decide rounds)
    is compared, not just the aggregate report.
    """

    def _assert_triple(self, spec, *, expect_engaged: bool = True):
        vector, flat_report, reference = _run_triple(spec)
        if expect_engaged:
            assert isinstance(vector.nodes, vectorized.LazyNodeMap)
        assert compare_reports(vector, reference) == []
        assert compare_reports(flat_report, reference) == []

    def test_broke_jammer(self):
        # mf=0 with bad nodes placed: the jammer exists but can never
        # spend — observe_inert_when_broke lets the kernel take it.
        self._assert_triple(_spec(mf=0, behavior="jam", m=6))

    def test_no_bad_nodes(self):
        self._assert_triple(
            _spec(mf=3, placement=RandomPlacement(t=1, count=0, seed=0))
        )

    def test_koo_and_heter(self):
        self._assert_triple(_spec(protocol="koo", m=None, mf=0))
        self._assert_triple(
            _spec(protocol="heter", m=None, t=2, mf=2,
                  placement=RandomPlacement(t=2, count=0, seed=3))
        )

    def test_degenerate_stripes(self):
        # 1xN / Nx1 bounded stripes (the fuzz sampler's degenerate
        # shapes): CSR segments of wildly varying length, endpoint nodes
        # with tiny neighborhoods — no empty-array broadcasting errors.
        self._assert_triple(
            ScenarioSpec(
                grid=GridSpec(width=1, height=40, r=3, torus=False),
                t=1, mf=0,
                placement=RandomPlacement(t=1, count=2, seed=3),
                protocol="b", behavior="jam",
            )
        )
        self._assert_triple(
            ScenarioSpec(
                grid=GridSpec(width=40, height=1, r=2, torus=False),
                t=1, mf=0,
                placement=RandomPlacement(t=1, count=1, seed=4),
                protocol="b", behavior="none", batch_per_slot=3,
            )
        )

    def test_max_rounds_one_cap(self):
        # The round cap fires before any relay: decided bitmap must hold
        # exactly the source's round-0 audience, with no off-by-one.
        self._assert_triple(_spec(mf=0, behavior="jam", max_rounds=1))

    def test_relay_override_and_zero_budget(self):
        self._assert_triple(
            _spec(mf=0, protocol_params={"relay_override": 5})
        )
        self._assert_triple(_spec(mf=0, m=0, behavior="jam"))

    def test_cpa_and_reactive_fall_through(self):
        # No vector hook: the kernel must decline, not crash.
        spec = _spec(protocol="cpa", behavior="spoof", m=3, mf=0,
                     batch_per_slot=1)
        vector, flat_report, reference = _run_triple(spec)
        assert not isinstance(vector.nodes, vectorized.LazyNodeMap)
        assert compare_reports(vector, reference) == []
        assert compare_reports(flat_report, reference) == []

    def test_active_adversary_falls_through(self):
        # mf>0 with bad nodes: the adversary could transmit, so the
        # kernel must hand the run to the flat engine untouched.
        spec = _spec(mf=2, behavior="jam")
        vector, _flat_report, reference = _run_triple(spec)
        assert not isinstance(vector.nodes, vectorized.LazyNodeMap)
        assert compare_reports(vector, reference) == []

    @given(spec=vector_candidate_specs())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_sampled_scenarios_triple_identical(self, spec):
        # Sampler-shaped scenarios biased toward kernel eligibility
        # (mf=0 half the time); ineligible draws still assert the
        # fall-through path equals the reference.
        vector, flat_report, reference = _run_triple(spec)
        assert compare_reports(vector, reference) == []
        assert compare_reports(flat_report, reference) == []
