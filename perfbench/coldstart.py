"""Time one cold start of the program, in a fresh interpreter.

Run by the benchmark as ``python3 perfbench/coldstart.py WORKLOAD``;
prints one JSON object with the raw seconds spent importing, spawning
and warming the pool (``serve`` only) and in total until the first
operation could start, and the calibration samples the child took right
before and right after that work, which the parent normalizes by.

The child pins itself (and so the pool worker it spawns) to one CPU
first: the two vCPUs of a shared host can run at different speeds at
the same moment, and the calibration must run where the work runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import program  # noqa: E402
from perfbench.calibrate import calibration_sample  # noqa: E402


def cold_start(workload: str) -> dict:
    program.use_source_tree()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    before = [calibration_sample() for _ in range(5)]
    timings = _timed_start(workload)
    timings["calibration_s"] = before + [calibration_sample() for _ in range(5)]
    return timings


def _timed_start(workload: str) -> dict:
    started = time.perf_counter()
    program.import_program(workload)
    imported = time.perf_counter()
    if workload != "serve":
        return {"import_s": imported - started, "pool_spawn_s": 0.0,
                "total_s": imported - started}
    import asyncio

    pool = program.spawn_pool()
    spawned = time.perf_counter()

    async def up_and_down() -> float:
        daemon = program.Daemon(pool, program.WORK / "coldstart-cache")
        await daemon.start()
        ready = time.perf_counter()
        await daemon.stop()
        return ready

    ready = asyncio.run(up_and_down())
    return {"import_s": imported - started, "pool_spawn_s": spawned - imported,
            "total_s": ready - started}


if __name__ == "__main__":
    try:
        print(json.dumps(cold_start(sys.argv[1])))
    finally:
        program.end_children()
