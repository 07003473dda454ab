"""The one supervised worker pool: respawn, backoff, idempotent resubmission.

:class:`PersistentPool` runs every pool task in the tree: a parallel
:func:`repro.runner.parallel.sweep` submits each uncached point to one,
and ``repro.serve`` each computed request. This is also the **only**
module allowed to name ``concurrent.futures.BrokenExecutor`` in an
``except`` clause — rule RPR501 of ``python -m repro check`` enforces it
— so recovery policy (capped exponential backoff, restart counters,
chaos-fault spending) lives in exactly one place; everything else
classifies failures with :func:`is_pool_break`.

The contract recovery must honor is the ROADMAP standing rule:
*infrastructure faults may cost latency, never bytes*. Pool breaks are
infrastructure — a SIGKILLed worker, an OOM kill, an unimportable spawn —
and are retried by resubmitting the in-flight points, which is safe
because points are idempotent by content hash
(:func:`repro.runner.parallel.point_key`). Simulation exceptions travel
as data through the :class:`_Invoker` protocol ``(ok, value)`` and are
**never** retried: a deterministic failure is a result, not a fault.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.chaos import inject as _chaos
from repro.errors import ConfigurationError, PoolBrokenError, SimulationError

_LOG = logging.getLogger("repro.pool")

#: Consecutive no-progress pool breaks tolerated before giving up. Above
#: the largest fault burst ``repro.chaos.plan.sample_plan`` can draw, so
#: any sampled plan is survivable by construction.
DEFAULT_MAX_RESTARTS = 5

#: Capped exponential backoff between respawns: 0.05, 0.1, 0.2, ... cap.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0


def default_workers() -> int:
    """Worker count used for ``workers=0``/``None``: one per CPU, capped."""
    return max(1, min(os.cpu_count() or 1, 16))


def backoff_delay(consecutive_failures: int) -> float:
    """Seconds to wait before respawn attempt ``consecutive_failures``."""
    exponent = max(0, consecutive_failures - 1)
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2**exponent))


def is_pool_break(exc: BaseException) -> bool:
    """Classify an exception as pool infrastructure failure.

    An ``isinstance`` check rather than an ``except`` clause, so callers
    outside this module never need to name ``BrokenExecutor`` (RPR501).
    """
    return isinstance(exc, (BrokenExecutor, PoolBrokenError))


def describe_worker_failure(
    point: Any, exc_type: str, message: str, tb: str
) -> str:
    """The one-line-plus-traceback story of a worker-side exception."""
    return (
        f"sweep worker failed on point {point!r}: {exc_type}: {message}\n"
        f"--- worker traceback ---\n{tb}"
    )


class _Task:
    """One supervised submission: its inputs, its outer future, its tries."""

    __slots__ = ("run", "point", "outer", "attempts")

    def __init__(self, run: Callable[[Any], Any], point: Any) -> None:
        self.run = run
        self.point = point
        self.outer: Future[Any] = Future()
        self.attempts = 0


class _Invoker:
    """Picklable wrapper shipping ``run`` to spawn workers.

    Exceptions are returned as data (not raised) so the parent can raise
    one coherent :class:`~repro.errors.SimulationError` naming the point
    instead of hanging or dying on an unpicklable exception object.
    """

    def __init__(self, run: Callable[[Any], Any]) -> None:
        self.run = run
        # Snapshot of the armed chaos plan's unspent worker faults; a
        # spawn worker cannot see the parent's plan, so the faults ride
        # the invoker's pickle. Empty (and free) when nothing is armed,
        # and re-taken per dispatch so a fault spent after a pool break
        # stops shipping to the respawned workers.
        self.faults = _chaos.shipped_worker_faults()

    def __call__(self, point: Any) -> tuple[bool, Any]:
        if self.faults:
            from repro.runner.parallel import point_key

            keys = [point_key(point)]
            if isinstance(point, (list, tuple)):
                # Serve chunks are lists of specs; let a fault target an
                # individual spec's content hash, not just the chunk's.
                keys.extend(point_key(item) for item in point)
            _chaos.install_worker_faults(self.faults)
            _chaos.fire_worker_faults(keys)
        try:
            return True, self.run(point)
        except Exception as exc:
            # Not BaseException: a KeyboardInterrupt must kill the worker
            # (surfacing as BrokenExecutor) rather than masquerade as a
            # simulation failure on whatever point was in flight.
            return False, (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
            )


class PersistentPool:
    """A long-lived, self-healing spawn pool.

    Spawn workers stay alive across submissions, so each worker's module
    state — notably the
    :class:`~repro.runner.parallel.ProcessLocalCache` warm worlds the
    scenario runner keeps — persists from one task to the next: the
    daemon keeps one pool for its life, a sweep one for its points.

    :meth:`submit` returns an *outer* ``concurrent.futures.Future``
    resolving to the :class:`_Invoker` outcome ``(ok, value)``, where a
    falsy ``ok`` carries ``(exc_type, message, traceback)`` and
    :meth:`unwrap` turns that into a
    :class:`~repro.errors.SimulationError`. The outer future survives
    pool death: when a worker dies, every in-flight task is requeued and
    a single supervisor thread respawns the executor (capped exponential
    backoff) and resubmits them through fresh invokers. After
    ``max_restarts`` (default :data:`DEFAULT_MAX_RESTARTS`, read when the
    pool is built) consecutive no-progress breaks the pool is declared
    dead: queued tasks fail with :class:`~repro.errors.PoolBrokenError`
    and further submits raise it too, until :meth:`revive` (the scenario
    service's recovery probe calls it) grants a fresh executor.

    Liveness is observable: :attr:`restarts`, :attr:`resubmitted`, and
    :attr:`alive` feed ``/healthz``.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_restarts: int | None = None,
    ) -> None:
        if workers is None or workers == 0:
            workers = default_workers()
        if workers < 1:
            raise ConfigurationError(
                f"persistent pool workers must be >= 1 (or 0 for one per "
                f"CPU), got {workers}"
            )
        self.workers = min(workers, default_workers())
        self.restarts = 0
        self.resubmitted = 0
        self._max_restarts = (
            DEFAULT_MAX_RESTARTS if max_restarts is None else max_restarts
        )
        self._lock = threading.RLock()
        self._consecutive = 0
        self._closed = False
        self._dead = False
        self._recovering = False
        self._retry: list[_Task] = []
        self._mp_context = multiprocessing.get_context("spawn")
        self._executor: ProcessPoolExecutor | None = self._make_executor()

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context
        )

    @property
    def alive(self) -> bool:
        """Whether submissions currently have a live executor to land on."""
        return not (self._closed or self._dead)

    def submit(
        self, run: Callable[[Any], Any], point: Any
    ) -> "Future[tuple[bool, Any]]":
        """Ship ``run(point)`` to a live worker; never blocks on compute."""
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "persistent pool is shut down; create a new one"
                )
            if self._dead:
                raise PoolBrokenError(
                    "worker pool is dead after repeated failures; revive() "
                    "it or create a new pool",
                    restarts=self.restarts,
                )
        task = _Task(run, point)
        self._dispatch(task)
        return task.outer

    @staticmethod
    def unwrap(point: Any, outcome: tuple[bool, Any]) -> Any:
        """Return a submitted call's value, re-raising worker failures."""
        ok, value = outcome
        if not ok:
            raise SimulationError(describe_worker_failure(point, *value))
        return value

    def revive(self) -> bool:
        """Grant a dead pool one fresh executor; True when now alive."""
        with self._lock:
            if self._closed:
                return False
            if not self._dead:
                return True
            old, self._executor = self._executor, self._make_executor()
            self._dead = False
            self._consecutive = 0
            self.restarts += 1
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        _LOG.warning("worker pool revived (restart %d)", self.restarts)
        return True

    def shutdown(self, *, wait: bool = True) -> None:
        """Drain (``wait=True``) or abandon the workers; idempotent."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            tasks, self._retry = self._retry, []
        for task in tasks:
            task.outer.cancel()
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- internals -------------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        invoker = _Invoker(task.run)
        with self._lock:
            executor = self._executor
        if executor is None:
            if not task.outer.done():
                task.outer.set_exception(
                    ConfigurationError(
                        "persistent pool is shut down; create a new one"
                    )
                )
            return
        try:
            inner = executor.submit(invoker, task.point)
        except BrokenExecutor as exc:
            self._requeue(task, exc)
            return
        except RuntimeError as exc:
            # The executor was shut down between the lock and the submit.
            if not task.outer.done():
                task.outer.set_exception(
                    ConfigurationError(
                        f"persistent pool is shut down; create a new one "
                        f"({exc})"
                    )
                )
            return
        inner.add_done_callback(
            lambda inner_future, task=task: self._on_done(task, inner_future)
        )

    def _on_done(self, task: _Task, inner: "Future[Any]") -> None:
        if inner.cancelled():
            task.outer.cancel()
            return
        exc = inner.exception()
        if exc is None:
            with self._lock:
                self._consecutive = 0
            if not task.outer.done():
                task.outer.set_result(inner.result())
            return
        if is_pool_break(exc):
            self._requeue(task, exc)
            return
        # Anything else came out of the worker itself; the invoker
        # protocol already turned simulation exceptions into data, so
        # this is rare (e.g. an unpicklable point) and not retryable.
        if not task.outer.done():
            task.outer.set_exception(exc)

    def _requeue(self, task: _Task, cause: BaseException) -> None:
        task.attempts += 1
        with self._lock:
            if self._closed:
                task.outer.cancel()
                return
            if self._dead or task.attempts > self._max_restarts + 1:
                failure = PoolBrokenError(
                    f"worker pool broke while running this point ({cause}); "
                    f"gave up after {task.attempts - 1} resubmissions",
                    restarts=self.restarts,
                )
                if not task.outer.done():
                    task.outer.set_exception(failure)
                return
            self._retry.append(task)
            start = not self._recovering
            self._recovering = True
        if start:
            threading.Thread(
                target=self._recover,
                args=(cause,),
                name="repro-pool-supervisor",
                daemon=True,
            ).start()

    def _recover(self, cause: BaseException) -> None:
        # Spend one injected crash fault (if a chaos plan is armed) so
        # the respawned workers' fresh invoker snapshot makes progress.
        _chaos.on_pool_break()
        with self._lock:
            self._consecutive += 1
            attempt = self._consecutive
            give_up = attempt > self._max_restarts
            if give_up:
                self._dead = True
                tasks, self._retry = self._retry, []
                self._recovering = False
        if give_up:
            failure = PoolBrokenError(
                f"worker pool died {attempt} consecutive times ({cause}); "
                f"giving up after {self.restarts} restarts — points must be "
                "picklable and the run function importable by spawned "
                "workers",
                restarts=self.restarts,
            )
            _LOG.error("%s", failure)
            for task in tasks:
                if not task.outer.done():
                    task.outer.set_exception(failure)
            return
        delay = backoff_delay(attempt)
        time.sleep(delay)
        with self._lock:
            closed = self._closed
            old = self._executor
            if not closed:
                self._executor = self._make_executor()
                self.restarts += 1
            tasks, self._retry = self._retry, []
            self._recovering = False
        if old is not None and not closed:
            old.shutdown(wait=False, cancel_futures=True)
        if closed:
            for task in tasks:
                task.outer.cancel()
            return
        _LOG.warning(
            "worker pool respawned (restart %d, backoff %.2fs) after: %s",
            self.restarts,
            delay,
            cause,
        )
        for task in tasks:
            self.resubmitted += 1
            self._dispatch(task)
