"""The program under test: where it lives and how each workload starts it.

Importing this module imports nothing from ``repro``; the cold-start
child (:mod:`perfbench.coldstart`) times exactly the calls below.
"""

from __future__ import annotations

import importlib
import io
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (caches, temp files, spans) goes here.
WORK = ROOT / ".perfbench-work"

#: What a user of each workload imports before the first operation.
MODULES: dict[str, tuple[str, ...]] = {
    "paper": ("repro.experiments.registry",) + tuple(
        f"repro.experiments.{name}" for name in (
            "e1_impossibility", "e2_figure2", "e3_protocol_b",
            "e4_koo_comparison", "e5_heterogeneous", "e6_coding",
            "e7_reactive", "e8_corollary1", "e9_ablations",
            "e10_uncertain_region", "e11_refined_coding_cost",
            "e12_probabilistic_failures", "e13_subbit_link",
        )
    ),
    "fuzz": ("repro.fuzz.sampler", "repro.fuzz.runner"),
    "serve": ("repro.serve.http", "repro.serve.service", "repro.scenario"),
}

#: One warm-up spec per serve preset, so every grid the traffic uses is
#: warm in the pool worker before the first request (seeds outside the
#: traffic's range).
SERVE_PRESETS = ("theorem2", "reactive", "quickstart")
WARMUP_SEED = 990_000


def use_source_tree() -> None:
    """Import ``repro`` from this checkout; keep all temp files inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def import_program(workload: str) -> None:
    for name in MODULES[workload]:
        importlib.import_module(name)


def spawn_pool() -> Any:
    """A one-worker persistent pool, warmed on every serve preset's grid."""
    from repro.runner.parallel import PersistentPool
    from repro.scenario import preset
    from repro.serve.service import run_serve_chunk

    pool = PersistentPool(1)
    warm = [preset(name).replace(seed=WARMUP_SEED) for name in SERVE_PRESETS]
    PersistentPool.unwrap("warm-up", pool.submit(run_serve_chunk, warm).result())
    return pool


def pool_pids(pool: Any) -> tuple[int, ...]:
    """Worker pids of a ``PersistentPool`` (its executor's processes)."""
    executor = getattr(pool, "_executor", None)
    return tuple(getattr(executor, "_processes", None) or ())


class Daemon:
    """An in-process ``run_daemon`` on an ephemeral loopback port."""

    def __init__(self, pool: Any, cache_dir: Path | None) -> None:
        from repro.runner.parallel import ResultCache
        from repro.serve.service import ScenarioService

        cache = (
            ResultCache(str(cache_dir), namespace="scenario")
            if cache_dir is not None else None
        )
        self.service = ScenarioService(pool=pool, cache=cache)
        self.port = 0
        self._task: Any = None
        self._stop: Any = None

    async def start(self) -> None:
        import asyncio

        from repro.serve.http import run_daemon

        ready, self._stop = asyncio.Event(), asyncio.Event()
        port_file = WORK / f"port-{os.getpid()}"
        self._task = asyncio.ensure_future(run_daemon(
            self.service, port_file=str(port_file), out=io.StringIO(),
            ready=ready, stop=self._stop,
        ))
        await ready.wait()
        self.port = int(port_file.read_text())
        port_file.unlink()

    async def stop(self) -> None:
        """Drain the service (which shuts its pool down) and wait."""
        assert self._task is not None and self._stop is not None
        self._stop.set()
        await self._task


def reset_process_caches() -> None:
    """Drop the program's process-local warm state.

    Each pass of a workload then starts from the state a fresh
    ``python -m repro`` process starts from, so later passes do not run
    faster than the first.
    """
    import repro.radio.medium as medium
    import repro.scenario.runner as scenario_runner

    scenario_runner._GRIDS.clear()
    scenario_runner._MEDIA.clear()
    scenario_runner._TABLES.clear()
    medium._PLAN_CACHES.clear()


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pids: tuple[int, ...] = ()) -> float:
    """Peak resident set, in MB, of this process and the given live pids.

    Read from ``VmHWM``, which :func:`reset_peak_rss` restarts.
    """
    peak_kb = 0
    for pid in ("self", *pids):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    if not peak_kb:  # no /proc: the lifetime peak of this process
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak_kb / 1024


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    With Linux ``PR_SET_CHILD_SUBREAPER`` set, a grandchild whose parent
    ends (a cold-start child's pool worker or resource tracker) becomes
    this process's child, so :func:`end_children` waits for it too.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker and wait for it.

    A spawn pool starts the tracker; left alone it outlives this process
    by the moment it takes to see its pipe close.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def end_children() -> None:
    """Return only when no child of this process is left.

    Stops the resource tracker, then reaps every child as it ends; one
    still running after 10 s is killed and reaped.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        stop_resource_tracker()
    deadline = time.monotonic() + 10.0
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        if time.monotonic() >= deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
