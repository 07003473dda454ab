"""The per-layer metrics of a traced run, named after the program's modules.

Every time is a normalized self time (see :mod:`perfbench.calibrate`)
unless its name ends in ``.s`` without ``self`` — those are the total
time of the span, children included. ``BENCHMARK.json`` lists exactly
:data:`PER_LAYER`; the self-tests hold the two together.
"""

from __future__ import annotations

import statistics

from perfbench.calibrate import C_REF_S, Calibrator
from perfbench.tracing import SpanRecorder

SERVE_SOURCES = ("lru", "disk", "dedup", "computed", "rejected")

#: (metric name, unit), in the order the benchmark reports them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("radio.resolve_slot.count", "count"),
    ("radio.resolve_slot.self_s", "s"),
    ("radio.resolve_slot_reference.count", "count"),
    ("radio.resolve_slot_reference.self_s", "s"),
    ("radio.driver.self_s", "s"),
    ("radio.round_memo.hit_ratio", "ratio"),
    ("radio.plan_cache.hit_ratio", "ratio"),
    ("protocols.build.self_s", "s"),
    ("protocols.flat.distribute.count", "count"),
    ("protocols.flat.distribute.self_s", "s"),
    ("protocols.vector.engaged_ratio", "ratio"),
    ("protocols.vector.self_s", "s"),
    ("network.grid_build.count", "count"),
    ("network.grid_build.self_s", "s"),
    ("network.node_table.self_s", "s"),
    ("scenario.run.count", "count"),
    ("scenario.run.self_s", "s"),
    ("scenario.world.hit_ratio", "ratio"),
    ("adversary.on_slot_count", "count"),
    ("adversary.self_s", "s"),
    ("analysis.collect.self_s", "s"),
    *((f"experiments.e{i}.s", "s") for i in range(1, 14)),
    ("fuzz.sample.self_s", "s"),
    ("fuzz.leg.fast.s", "s"),
    ("fuzz.leg.reference.s", "s"),
    ("fuzz.leg.vector.s", "s"),
    ("fuzz.oracles.self_s", "s"),
    ("fuzz.compare.self_s", "s"),
    ("fuzz.chaos.s", "s"),
    ("runner.sweep.self_s", "s"),
    ("runner.result_cache.get.count", "count"),
    ("runner.result_cache.get.self_s", "s"),
    ("runner.result_cache.get.hit_ratio", "ratio"),
    ("runner.result_cache.put.count", "count"),
    ("runner.result_cache.put.self_s", "s"),
    ("runner.pool.batches", "count"),
    ("runner.pool.batch_size_mean", "count"),
    ("runner.pool.roundtrip_p50_ms", "ms"),
    *((f"serve.requests.{source}.count", "count") for source in SERVE_SOURCES),
    *((f"serve.latency.{source}.p50_ms", "ms") for source in SERVE_SOURCES),
    ("serve.handle.self_s", "s"),
    ("serve.submit.self_s", "s"),
    ("serve.queue_wait.p50_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.pool_spawn_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("calibration.c_local_ms", "ms"),
    ("calibration.spread", "ratio"),
)


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(
    rec: SpanRecorder,
    cal: Calibrator,
    *,
    extra: dict[str, float],
) -> dict[str, float]:
    """Compute every :data:`PER_LAYER` metric of one traced run.

    ``extra`` carries what the workload measured itself (serve request
    counts and latencies by source, setup components, the traced and
    untraced totals); metrics a workload does not exercise read 0.
    """
    scale = C_REF_S / cal.median()
    totals = rec.totals()
    counts = rec.counts

    def count(name: str) -> int:
        entry = totals.get(name)
        return entry.count if entry else 0

    def self_s(*names: str) -> float:
        return sum(totals[n].self_ns for n in names if n in totals) * 1e-9 * scale

    def total_s(name: str) -> float:
        entry = totals.get(name)
        return entry.total_ns * 1e-9 * scale if entry else 0.0

    def p50_ms(key: str) -> float:
        spans = rec.intervals.get(key)
        if not spans:
            return 0.0
        return 1e3 * statistics.median(cal.normalize(a, b) for a, b in spans)

    sizes = rec.values.get("runner.pool.batch_size")
    metrics: dict[str, float] = {
        "radio.resolve_slot.count": count("radio.resolve_slot"),
        "radio.resolve_slot.self_s": self_s("radio.resolve_slot"),
        "radio.resolve_slot_reference.count": count("radio.resolve_slot_reference"),
        "radio.resolve_slot_reference.self_s": self_s("radio.resolve_slot_reference"),
        "radio.driver.self_s": self_s("radio.driver"),
        "radio.round_memo.hit_ratio": _ratio(
            counts["radio.round_memo.hits"], counts["radio.round_memo.calls"]),
        "radio.plan_cache.hit_ratio": _ratio(
            counts["radio.plan_cache.hits"], counts["radio.plan_cache.calls"]),
        "protocols.build.self_s": self_s("protocols.build"),
        "protocols.flat.distribute.count": count("protocols.flat.distribute"),
        "protocols.flat.distribute.self_s": self_s("protocols.flat.distribute"),
        "protocols.vector.engaged_ratio": _ratio(
            counts["protocols.vector.hits"], counts["protocols.vector.calls"]),
        "protocols.vector.self_s": self_s("protocols.vector"),
        "network.grid_build.count": count("network.grid_build"),
        "network.grid_build.self_s": self_s("network.grid_build"),
        "network.node_table.self_s": self_s("network.node_table"),
        "scenario.run.count": count("scenario.run"),
        "scenario.run.self_s": self_s("scenario.run"),
        "scenario.world.hit_ratio": _ratio(
            counts["scenario.world.hits"], counts["scenario.world.calls"]),
        "adversary.on_slot_count": count("adversary.on_slot"),
        "adversary.self_s": self_s("adversary.on_slot", "adversary.observe"),
        "analysis.collect.self_s": self_s("analysis.collect"),
        **{f"experiments.e{i}.s": total_s(f"experiments.e{i}") for i in range(1, 14)},
        "fuzz.sample.self_s": self_s("fuzz.sample"),
        "fuzz.leg.fast.s": total_s("fuzz.leg.fast"),
        "fuzz.leg.reference.s": total_s("fuzz.leg.reference"),
        "fuzz.leg.vector.s": total_s("fuzz.leg.vector"),
        "fuzz.oracles.self_s": self_s("fuzz.oracles"),
        "fuzz.compare.self_s": self_s("fuzz.compare"),
        "fuzz.chaos.s": total_s("fuzz.chaos"),
        "runner.sweep.self_s": self_s("runner.sweep"),
        "runner.result_cache.get.count": count("runner.result_cache.get"),
        "runner.result_cache.get.self_s": self_s("runner.result_cache.get"),
        "runner.result_cache.get.hit_ratio": _ratio(
            counts["runner.result_cache.get.hits"], count("runner.result_cache.get")),
        "runner.result_cache.put.count": count("runner.result_cache.put"),
        "runner.result_cache.put.self_s": self_s("runner.result_cache.put"),
        "runner.pool.batches": counts["runner.pool.batches"],
        "runner.pool.batch_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "runner.pool.roundtrip_p50_ms": p50_ms("runner.pool.roundtrip"),
        "serve.handle.self_s": self_s("serve.handle"),
        "serve.submit.self_s": self_s("serve.submit"),
        "serve.queue_wait.p50_ms": p50_ms("serve.queue_wait"),
        "trace.spans": len(rec),
        "calibration.c_local_ms": cal.median() * 1e3,
        "calibration.spread": cal.spread(),
    }
    for source in SERVE_SOURCES:
        metrics[f"serve.requests.{source}.count"] = 0
        metrics[f"serve.latency.{source}.p50_ms"] = 0.0
    metrics.update(extra)
    missing = [name for name, _unit in PER_LAYER if name not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: metrics[name] for name, _unit in PER_LAYER}
