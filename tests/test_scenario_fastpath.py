"""Equivalence suite for the end-to-end scenario fast path.

The referee for the fast paths: whole scenarios run at
``Tier.REFERENCE`` (reference round loop, per-node protocol state, cold
world per run) and at ``Tier.FAST`` (batched driver + burst dedup +
slot memo, flat engines, warm world), and the resulting reports
must be identical in every observable — outcome, costs, stats, and the
per-node state the reference implementations maintain (``value_counts``
/ ``received_total`` / ``endorsements``). Same pattern as the
recorded-traffic suite for ``resolve_slot_reference``.

The base scenario comes from ``tests/strategies.py`` and report equality
is asserted through :func:`repro.fuzz.compare_reports` — the same
comparator the fuzz subsystem applies to sampled scenarios.
"""

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.protocols.vectorized as vectorized
import repro.radio.medium as medium_module
import repro.scenario.runner as runner_mod
from repro.adversary.jamming import ThresholdGuardJammer
from repro.adversary.placement import RandomPlacement, StripePlacement
from repro.fuzz import compare_reports
from repro.network.grid import Grid, GridSpec
from repro.network.node import NodeTable
from repro.radio.budget import BudgetLedger
from repro.radio.mac import RoundDriver, RunLimits
from repro.radio.medium import Medium
from repro.radio.messages import MessageKind
from repro.scenario import ScenarioSpec, preset, run
from repro.seams import Tier
from repro.types import VTRUE
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
        # Stateful-observe adversary: no burst dedup; bursts inside its
        # quiet horizon are coalesced, the rest flushed one by one.
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
        # Queue-based nodes: no flat engine, and sends are not stable.
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

    @pytest.mark.parametrize("name", ["reactive", "quickstart", "theorem2"])
    def test_fast_tier_reads_segments_only(self, name, monkeypatch):
        # The no-engine branch (reactive), the jammer's observe and the
        # quiet horizon's coalescing (theorem2, batch_per_slot=4) all
        # consume segments: building a Delivery view from them fails.
        spec = preset(name)
        reference = run(spec, tier=Tier.REFERENCE)

        def no_view(segments):
            raise AssertionError("the fast tier built a Delivery view")

        monkeypatch.setattr(medium_module, "_materialize", no_view)
        _assert_reports_identical(run(spec, tier=Tier.FAST), reference)

    @pytest.mark.slow
    def test_figure2_paper_instance(self):
        # The headline workload: 2001-burst source phase, planned
        # defense, burst dedup with multiplicity through the flat engine.
        from repro.experiments.e2_figure2 import paper_spec

        fast, reference = _run_both(paper_spec())
        _assert_reports_identical(fast, reference)


class _NodeOracleJammer(ThresholdGuardJammer):
    """Reads decisions from the protocol nodes even under a flat engine."""

    def bind_decided_bits(self, bits):
        pass


def _jam_runs(spec, *, threshold, protected=None, oracle="bits"):
    """(fast, reference) reports and jammers of one jam scenario."""
    cls = ThresholdGuardJammer if oracle == "bits" else _NodeOracleJammer
    jammers = []

    def build(grid, table, ledger):
        band = None
        if protected is not None:
            band = [nid for nid in grid.all_ids() if grid.coord_of(nid)[1] in protected]
        jammers.append(cls(grid, table, ledger, threshold=threshold, protected=band))
        return jammers[-1]

    fast = run(spec, tier=Tier.FAST, adversary_override=build)
    reference = run(spec, tier=Tier.REFERENCE, adversary_override=build)
    return fast, reference, jammers


class TestQuietHorizonEquivalence:
    """Coalescing the jammer's quiet repeats changes nothing observable.

    The batched loop skips ``on_slot`` for bursts inside the horizon
    ``quiet_bursts`` declares and observes them in one call; the
    reference loop consults the jammer on every burst.
    """

    @pytest.mark.parametrize("oracle", ["bits", "nodes"])
    @pytest.mark.parametrize("protected", [None, (6, 7, 8)])
    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("batch_per_slot", [2, 4, 25])
    def test_fast_equals_reference(self, batch_per_slot, tight, protected, oracle):
        spec = _spec(behavior="jam", t=2, mf=2, m=6,
                     placement=RandomPlacement(t=2, count=12, seed=5),
                     batch_per_slot=batch_per_slot)
        # tight: threshold 1, so every undecided protected receiver is
        # at risk and the horizon is always 0.
        threshold = 1 if tight else spec.t * spec.mf + 1
        fast, reference, (fast_jammer, reference_jammer) = _jam_runs(
            spec, threshold=threshold, protected=protected, oracle=oracle
        )
        _assert_reports_identical(fast, reference)
        assert reference_jammer.jams > 0
        assert fast_jammer.jams == reference_jammer.jams
        assert fast_jammer._clean == reference_jammer._clean

    def test_fast_consults_the_jammer_less_than_half_as_often(self, monkeypatch):
        # Theorem 2's band: relays drain four identical bursts per slot,
        # which the horizon coalesces. A silent fall back to consulting
        # the jammer burst by burst fails here.
        calls = {Tier.FAST: 0, Tier.REFERENCE: 0}
        tier = Tier.FAST
        on_slot = ThresholdGuardJammer.on_slot

        def counting(self, round_index, slot, honest):
            calls[tier] += 1
            return on_slot(self, round_index, slot, honest)

        monkeypatch.setattr(ThresholdGuardJammer, "on_slot", counting)
        spec = preset("theorem2")
        fast = run(spec, tier=tier)
        tier = Tier.REFERENCE
        reference = run(spec, tier=tier)
        _assert_reports_identical(fast, reference)
        assert 0 < calls[Tier.FAST] < calls[Tier.REFERENCE] / 2

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_neighbor_table_order_does_not_matter(self, seed):
        # The greedy cover's choice is a total order and its output is
        # sorted, so the sparse-side table order is immaterial: shuffled
        # tables give the same on_slot output at every call.
        spec = _spec(behavior="jam", t=2, mf=2, m=6,
                     placement=RandomPlacement(t=2, count=12, seed=5),
                     batch_per_slot=4)
        rng = random.Random(seed)

        def shuffled(table):
            rows = {}
            for key, row in table.items():
                row = list(row)
                rng.shuffle(row)
                rows[key] = tuple(row)
            return rows

        def recorded(shuffle):
            outputs = []

            def build(grid, table, ledger):
                jammer = ThresholdGuardJammer(
                    grid, table, ledger, threshold=spec.t * spec.mf + 1
                )
                if shuffle:
                    jammer._protected_near = shuffled(jammer._protected_neighbors())
                    jammer._bad_near = shuffled(jammer._bad_neighbors())
                on_slot = jammer.on_slot

                def recording(round_index, slot, honest):
                    outputs.append(on_slot(round_index, slot, honest))
                    return outputs[-1]

                jammer.on_slot = recording
                return jammer

            run(spec, tier=Tier.FAST, adversary_override=build)
            return outputs

        plain = recorded(False)
        assert any(plain)
        assert recorded(True) == plain

    @pytest.mark.parametrize("batch_per_slot", [2, 3, 6])
    def test_queue_nodes_fast_equals_reference(self, batch_per_slot):
        # Queue-based nodes (no sends_stable) can be re-armed by a
        # mid-slot receive: any non-Vtrue DATA they hear queues a NACK.
        # Coalescing a quiet group defers its deliveries past the next
        # burst's sends, which is exact only because a quiet group is
        # jam-free and an honest burst reaches no owner of its slot.
        fast_stats, fast_nodes, fast_jammer, fast_ledger, fast_calls = (
            _queue_node_jam_run(batch_per_slot, fast=True)
        )
        ref_stats, ref_nodes, ref_jammer, ref_ledger, ref_calls = (
            _queue_node_jam_run(batch_per_slot, fast=False)
        )
        assert fast_stats == ref_stats
        assert fast_stats.quiescent
        assert ref_jammer.jams > 0
        assert fast_stats.per_kind_honest[MessageKind.NACK] > 0
        for nid, node in ref_nodes.items():
            assert fast_nodes[nid].heard == node.heard
            assert fast_nodes[nid].decided == node.decided
        assert fast_jammer.jams == ref_jammer.jams
        assert fast_jammer._clean == ref_jammer._clean
        ids = range(ref_jammer.grid.n)
        assert [fast_ledger.sent(n) for n in ids] == [ref_ledger.sent(n) for n in ids]
        # The horizon engages for queue nodes: repeats inside it skip
        # on_slot, so the batched loop consults the jammer on fewer
        # non-empty bursts than the reference loop.
        assert 0 < fast_calls < ref_calls


class _QueueRelayNode:
    """Queue-based relay double: accepts after ``threshold`` clean Vtrue
    copies, then queues ``copies`` Vtrue sends; every other DATA value it
    hears (a jam) queues a NACK, so a drained node is re-armed mid-slot.
    """

    def __init__(self, *, threshold, copies, source=False):
        self.threshold = threshold
        self.copies = copies
        self.queue = deque()
        self.clean = 0
        self.decided = False
        self.heard = []
        if source:
            self._accept()

    def _accept(self):
        self.decided = True
        self.queue.extend([(VTRUE, MessageKind.DATA)] * self.copies)

    def has_pending(self):
        return bool(self.queue)

    def pop_send(self):
        return self.queue.popleft()

    def on_receive(self, sender, value, kind):
        self.heard.append((sender, value, kind))
        if kind is not MessageKind.DATA:
            return
        if value != VTRUE:
            self.queue.append((-2, MessageKind.NACK))
            return
        self.clean += 1
        if not self.decided and self.clean >= self.threshold:
            self._accept()

    def on_round_end(self, round_index):
        pass


def _queue_node_jam_run(batch_per_slot, *, fast):
    """One 12x12 torus run of queue relays against the threshold jammer.

    Returns ``(stats, nodes, jammer, ledger, on_slot calls with a
    non-empty honest list while the jammer had budget)``.
    """
    grid = Grid(GridSpec(12, 12, r=1, torus=True), fast=fast)
    source = grid.id_of((0, 0))
    bad = [grid.id_of(xy) for xy in ((2, 2), (5, 7), (9, 3), (7, 10), (11, 6))]
    table = NodeTable(grid, source=source, bad=bad)
    threshold = 3
    ledger = BudgetLedger(
        grid.n, default_budget=None, overrides={b: 2 for b in bad}
    )
    nodes = {
        nid: _QueueRelayNode(
            threshold=threshold, copies=4, source=nid == source
        )
        for nid in table.good_ids
    }
    jammer = ThresholdGuardJammer(grid, table, ledger, threshold=threshold)
    jammer.bind_decided(nodes)
    calls = 0
    on_slot = jammer.on_slot

    def counting(round_index, slot, honest):
        # Only calls the batched loop must make too: it stops consulting
        # a jammer that is out of budget.
        nonlocal calls
        calls += bool(honest) and any(ledger.can_send(b) for b in bad)
        return on_slot(round_index, slot, honest)

    jammer.on_slot = counting
    driver = RoundDriver(
        grid,
        table,
        nodes,
        jammer,
        ledger,
        batch_per_slot=batch_per_slot,
        medium=Medium(grid, fast=fast),
        fast=fast,
    )
    stats = driver.run(RunLimits(max_rounds=200))
    return stats, nodes, jammer, ledger, calls


class TestInactiveAdversaryEquivalence:
    """Rounds with the adversary out of budget are exact.

    With no Byzantine node able to send, the batched loop skips empty
    slots, never consults the adversary, and dedups and compacts every
    slot's bursts whatever the node class.
    """

    def test_broke_jammer_matches_reference(self):
        # mf=0: the adversary is inactive from round one, so every round
        # takes the batched loop's inactive-adversary branch, and repeated
        # rounds resolve their slots from the medium's slot memo.
        spec = _spec(mf=0, behavior="jam", m=6)
        fast, reference = _run_both(spec)
        _assert_reports_identical(fast, reference)

    def test_reactive_quiet_window_survives_silent_rounds(self):
        # Silent rounds (no slot occupied) must still run on_round_end
        # (the reactive quiet-window countdown is driven by it).
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
