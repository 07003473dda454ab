"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper|fuzz|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures for ``S`` seconds (whole passes, at least 100
operations) with tracing off and reports the
end-to-end metrics. ``--trace 1`` runs one fixed unit of the workload
untraced, then the same unit traced, checks both produced the same
outputs, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``info: {...}``) carries unscored context. The exit code is 0 only
when every output matched its pinned reference. Before it prints the
result, the command waits for every process it started (cold-start
children, pool workers, resource trackers, and any of their orphans) to
end.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, layers, program  # noqa: E402
from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.harness import Measured  # noqa: E402
from perfbench.tracing import SpanRecorder, install, span  # noqa: E402

WORKLOADS = ("paper", "fuzz", "serve")


def _workload(name: str, seed: int) -> object:
    from perfbench.fuzz import Fuzz
    from perfbench.paper import Paper
    from perfbench.serve import Serve

    cls = {"paper": Paper, "fuzz": Fuzz, "serve": Serve}[name]
    return cls(seed, harness.load_pinned())


def measure(workload: object, cal: Calibrator, *, seconds: float | None,
            rec: SpanRecorder | None = None) -> Measured:
    """Timed run: whole passes until ``seconds`` (``None``: one pass).

    Each pass is prepared first, untimed (serve: cache pre-filled, pool
    warmed). ``peak_rss_mb`` is the median over passes of each pass's
    peak. With ``rec`` the layer wrappers are installed after the first
    pass is prepared and removed after the run.
    """
    out = Measured()
    deadline = time.perf_counter() + (seconds or 0.0)
    digests, peaks = [], []
    patches = None
    try:
        while True:
            workload.prepare()
            if rec is not None and patches is None:
                patches = install(rec)
                # Calibration inside a layer's span must not count as its self time.
                cal.sample = span(rec, "perfbench.calibration", cal.sample)
            gc.collect()
            program.reset_peak_rss()
            pass_digest, peak = workload.run_pass(cal, out)
            digests.append(pass_digest)
            peaks.append(peak)
            if time.perf_counter() >= deadline and len(out.ops) >= harness.MIN_OPS:
                break
    finally:
        if patches is not None:
            patches.undo()
    if len(set(digests)) > 1:
        out.fail(0, "passes over the same inputs produced different outputs")
    out.output_digest = digests[0]
    out.peak_rss_mb = statistics.median(peaks)
    return out


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    program.use_source_tree()
    logging.getLogger("repro").setLevel(logging.CRITICAL)  # injected-fault noise
    setup = harness.measure_setup(args.workload)
    program.import_program(args.workload)
    workload = _workload(args.workload, args.seed)
    info: dict = {"workload": args.workload, "seed": args.seed,
                  "setup_samples_s": [round(s, 4) for s in setup.samples]}
    if not args.trace:
        cal = Calibrator()
        out = measure(workload, cal, seconds=args.seconds)
        metrics = harness.end_to_end(out, cal, setup.total_s)
        units = dict(harness.END_TO_END)
        info.update(raw_s=round(out.raw_s(), 3), ops=len(out.ops),
                    c_local_ms=round(cal.median() * 1e3, 4),
                    calibration_spread=round(cal.spread(), 4),
                    calibration_share=round(cal.spent_s / max(out.raw_s(), 1e-9), 4))
    else:
        plain_cal, traced_cal = Calibrator(), Calibrator()
        plain = measure(workload, plain_cal, seconds=None)
        rec = SpanRecorder()
        out = measure(workload, traced_cal, seconds=None, rec=rec)
        if out.output_digest != plain.output_digest:
            out.fail(0, "outputs differ with tracing on and off")
        out.attempted += plain.attempted
        out.failed += plain.failed
        out.problems += plain.problems
        rec.write(program.WORK, f"trace-{args.workload}")
        untraced_s, traced_s = plain.busy_s(plain_cal), out.busy_s(traced_cal)
        extra = dict(out.layer_extra)
        extra.update({
            "setup.import_s": setup.import_s,
            "setup.pool_spawn_s": setup.pool_spawn_s,
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
        metrics = layers.layer_metrics(rec, traced_cal, extra=extra)
        units = dict(layers.PER_LAYER)
        info.update(output_digest=out.output_digest[:16], spans=len(rec))
    correct = out.failed == 0 and not out.problems
    info["problems"] = out.problems
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    program.adopt_orphans()
    try:
        result, info = run(args)
    finally:
        program.end_children()
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
