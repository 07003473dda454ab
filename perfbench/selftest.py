"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(the file is named so that the repository's own test run does not
collect it). The serve test starts a real daemon and pool; the rest are
pure arithmetic and generator checks.
"""

from __future__ import annotations

import asyncio
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import fuzz, harness, layers, paper, program, serve, stats  # noqa: E402
from perfbench.calibrate import C_REF_S, WINDOW, Calibrator  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Patches, SpanRecorder, async_span, install, span,
)

program.use_source_tree()
BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def _first_waves(seed: int, count: int) -> list:
    return [wave for block in serve.blocks(seed) for wave in block][:count]


# -- workload generators ---------------------------------------------------------


@pytest.mark.parametrize("generate", [
    paper.experiment_order,
    fuzz.case_order,
    lambda seed: _first_waves(seed, 300),
])
def test_generators_are_deterministic_in_their_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_generators_permute_a_fixed_input_set():
    assert sorted(paper.experiment_order(3)) == sorted(paper.EXPERIMENTS)
    assert sorted(fuzz.case_order(3)) == list(range(fuzz.CASES))


def test_serve_stream_has_the_block_mix_for_every_seed():
    for seed in (1, 2, 3):
        for block in serve.blocks(seed):
            assert len(block) == serve.BLOCK_WAVES
            kinds = Counter(request.expect for wave in block for request in wave)
            assert kinds["dedup"] == serve.BLOCK_DEDUP_WAVES
            assert kinds["computed"] == serve.NEW_PER_BLOCK
            for kind in ("disk", "rejected", "lru"):
                assert kinds[kind] == serve.BLOCK_REQUESTS[kind]


def test_serve_blocks_ask_for_the_same_specs_under_every_seed():
    def specs(seed: int, kind: str) -> list[list]:
        return [[request.ref for wave in block for request in wave
                 if request.expect == kind]
                for block in serve.blocks(seed)]

    # The pool computes the same specs in the same order.
    assert specs(1, "computed") == specs(2, "computed")
    assert specs(1, "dedup") == specs(2, "dedup")
    assert [sorted(block) for block in specs(1, "disk")] == [
        sorted(block) for block in specs(2, "disk")]
    assert specs(1, "disk") != specs(2, "disk")
    assert len(specs(1, "computed")) == serve.BLOCKS


def test_serve_repeats_are_of_served_specs_and_new_specs_are_new():
    served: set = set()
    for wave in _first_waves(5, serve.BLOCKS * serve.BLOCK_WAVES):
        for request in wave:
            if request.expect == "lru":
                assert request.ref in served
            elif request.expect in ("computed", "disk"):
                assert request.ref not in served
        served.update(r.ref for r in wave if r.expect != "rejected")


def test_pinned_new_specs_mostly_differ_in_outcome():
    # A body is nine counters, so specs that run different rounds can
    # still share one; the memo test below checks the rounds themselves.
    new = harness.load_pinned()["serve"]["new"]
    assert len(set(new)) > 0.5 * len(new)


def test_new_specs_compute_rounds_a_warm_worker_has_not_resolved():
    """A computed request does real compute, not a replay of memoized rounds.

    The pool worker is not traced, so its work is checked here: the
    first two blocks' new specs run in this process after the worker's
    warm-up, under the traced run's wrappers.
    """
    from repro.scenario import preset
    from repro.scenario.runner import run_summary
    from repro.scenario.spec import ScenarioSpec

    for name in program.SERVE_PRESETS:
        run_summary(preset(name).replace(seed=program.WARMUP_SEED))
    base = serve._base_specs()
    rec = SpanRecorder()
    patches = install(rec)
    try:
        for index in range(2 * serve.NEW_PER_BLOCK):
            run_summary(ScenarioSpec.from_dict(serve.spec_payload(base, ("n", index))))
    finally:
        patches.undo()
    memo = rec.counts
    assert memo["radio.round_memo.hits"] < 0.25 * memo["radio.round_memo.calls"]
    self_ns = {name: totals.self_ns for name, totals in rec.totals().items()}
    assert max(self_ns, key=self_ns.get) == "radio.resolve_slot"


def test_serve_sources_are_exactly_the_ones_the_seed_implies():
    workload = serve.Serve(11, harness.load_pinned())
    out = harness.Measured()
    workload.prepare()
    workload.run_pass(Calibrator(), out)
    assert out.failed == 0, out.problems
    waves = _first_waves(11, serve.BLOCKS * serve.BLOCK_WAVES)
    expected = Counter(request.expect for wave in waves for request in wave)
    observed = {source: out.layer_extra[f"serve.requests.{source}.count"]
                for source in layers.SERVE_SOURCES}
    assert observed == {source: expected[source] for source in layers.SERVE_SOURCES}


# -- normalization and percentiles ----------------------------------------------


def test_normalization_scales_by_the_reference_over_the_local_sample():
    assert WINDOW == 5
    cal = Calibrator()
    for at in range(10):
        cal.record(float(at), 2 * C_REF_S)  # a host twice as slow as the reference
    assert cal.normalize(4.0, 5.0) == pytest.approx(0.5)
    for at in range(20, 25):
        cal.record(float(at), C_REF_S)
    # The window holds the five samples nearest the interval's midpoint.
    assert cal.c_local(22.0) == C_REF_S
    assert cal.normalize(21.5, 22.5) == pytest.approx(1.0)
    assert cal.c_local(4.5) == 2 * C_REF_S
    # Nearest the boundary, the window straddles both speeds.
    assert cal.c_local(19.0) == C_REF_S  # samples at 8, 9, 20, 21, 22
    assert cal.c_local(9.0) == 2 * C_REF_S  # samples at 7, 8, 9, 20, 21


def test_calibration_loop_does_the_same_work_every_sample():
    from perfbench.calibrate import _data, calibration_loop

    _table, cells = _data()
    for _ in range(300):
        calibration_loop()
    # The totals wrap, so late samples add small ints just like early ones.
    assert max(cell.total for cell in cells) < 256


def test_c_local_is_a_median_so_one_outlier_does_not_move_it():
    cal = Calibrator()
    for at, seconds in enumerate([1.0, 1.0, 9.0, 1.0, 1.0]):
        cal.record(float(at), seconds * C_REF_S)
    assert cal.normalize(0.0, 4.0) == pytest.approx(4.0)


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    with pytest.raises(ValueError):
        stats.p90([float(i) for i in range(99)])
    assert stats.p90([float(i) for i in range(1, 101)]) == 90.0


def test_spread_is_the_interquartile_range_over_the_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- the metric catalogue ----------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_pinned_references_cover_every_input():
    pinned = harness.load_pinned()
    assert sorted(pinned["paper"]) == sorted(paper.EXPERIMENTS)
    assert len(pinned["fuzz"]["case_hashes"]) == fuzz.CASES
    assert len(pinned["serve"]["new"]) == serve.NEW_SPECS
    assert len(pinned["serve"]["prefill"]) == serve.PREFILL_SPECS
    assert len(pinned["serve"]["malformed"]) == len(serve.MALFORMED)


# -- spans -----------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    import perfbench.tracing as tracing

    rec = SpanRecorder()
    clock = iter(range(0, 1000, 10))
    saved, tracing._now_ns = tracing._now_ns, lambda: next(clock)
    try:
        inner = span(rec, "inner", lambda: None)
        outer = span(rec, "outer", lambda: (inner(), inner()))
        outer()
    finally:
        tracing._now_ns = saved
    totals = rec.totals()
    # outer: opened at 0, children [10, 20] and [30, 40], closed at 50.
    assert totals["outer"].total_ns == 50
    assert totals["inner"].count == 2 and totals["inner"].total_ns == 20
    assert totals["outer"].self_ns == 30


def test_async_spans_time_each_resumption_not_the_wait():
    rec = SpanRecorder()

    async def body() -> int:
        await asyncio.sleep(0.05)
        return 3

    traced = async_span(rec, "body", body)
    assert asyncio.run(_await(traced())) == 3
    totals = rec.totals()
    assert totals["body"].count == 2  # before and after the sleep
    assert totals["body"].total_ns < 0.02e9


async def _await(awaitable):
    return await awaitable


def test_patches_undo_restores_every_attribute():
    class Target:
        def method(self) -> int:
            return 1

    class Child(Target):
        pass

    patches = Patches()
    patches.method(Child, "method", lambda fn: lambda self: 2)
    assert Child().method() == 2 and Target().method() == 1
    patches.undo()
    assert Child().method() == 1 and "method" not in Child.__dict__
