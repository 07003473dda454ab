"""What every workload hands back, and the end-to-end metrics made from it."""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats
from perfbench.calibrate import C_REF_S, Calibrator

#: (metric name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: A run measures at least this many operations, so p90 has 10 beyond it.
MIN_OPS = 100

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 15

PINNED = Path(__file__).resolve().parent / "pinned.json"


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def digest(text: str) -> str:
    """Short content digest used for pinned outputs (64 bits of sha256)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Measured:
    """One workload's raw timings and the correctness of its outputs.

    Intervals are raw ``perf_counter`` pairs; they are normalized after
    the run, when calibration samples on both sides of each are known.
    """

    #: One interval per operation.
    ops: list[tuple[float, float]] = field(default_factory=list)
    #: Every interval the workload ran, operations included (throughput).
    work: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Digest of the ordered outputs; equal with tracing on and off.
    output_digest: str = ""
    peak_rss_mb: float = 0.0
    #: Operation intervals by kind (serve: by ``X-Source``).
    groups: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Per-layer figures the workload measured itself (serve, by source).
    layer_extra: dict[str, float] = field(default_factory=dict)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    def latencies(self, cal: Calibrator) -> list[float]:
        return [cal.normalize(a, b) for a, b in self.ops]

    def busy_s(self, cal: Calibrator) -> float:
        return sum(cal.normalize(a, b) for a, b in self.work)

    def raw_s(self) -> float:
        return sum(b - a for a, b in self.work)


def end_to_end(measured: Measured, cal: Calibrator, setup_s: float) -> dict[str, float]:
    latencies = measured.latencies(cal)
    return {
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / measured.busy_s(cal),
        "op_p50_ms": 1e3 * stats.p50(latencies),
        "op_p90_ms": 1e3 * stats.p90(latencies),
        "peak_rss_mb": measured.peak_rss_mb,
    }


@dataclass(frozen=True)
class Setup:
    """Normalized medians over the cold starts of one run."""

    total_s: float
    import_s: float
    pool_spawn_s: float
    samples: tuple[float, ...]


def measure_setup(workload: str) -> Setup:
    """Median of :data:`COLD_STARTS` cold starts, each between calibration samples.

    The child takes the samples itself, on the CPU it works on, right
    before and right after the work, and is normalized by their median
    (see ``coldstart.py``). One extra cold start first is discarded: it
    compiles bytecode in a fresh checkout and fills the page cache.
    """
    script = str(Path(__file__).resolve().parent / "coldstart.py")
    _cold_start(script, workload)
    totals, imports, spawns = [], [], []
    for _ in range(COLD_STARTS):
        child = _cold_start(script, workload)
        scale = C_REF_S / statistics.median(child["calibration_s"])
        totals.append(child["total_s"] * scale)
        imports.append(child["import_s"] * scale)
        spawns.append(child["pool_spawn_s"] * scale)
    return Setup(
        total_s=statistics.median(totals),
        import_s=statistics.median(imports),
        pool_spawn_s=statistics.median(spawns),
        samples=tuple(totals),
    )


def _cold_start(script: str, workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, script, workload], capture_output=True,
        text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"cold start of {workload!r} failed ({done.returncode}): "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])
