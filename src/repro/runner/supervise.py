"""Worker-pool supervision: respawn, backoff, and idempotent resubmission.

This is the **only** module in the tree allowed to name
``concurrent.futures.BrokenExecutor`` in an ``except`` clause — rule
RPR501 of ``python -m repro check`` enforces it. Everything else routes
pool work through :func:`supervised_map` / :class:`SupervisedPool` and
classifies failures with :func:`is_pool_break`, so recovery policy
(capped exponential backoff, restart counters, chaos-fault spending,
completed-point accounting) lives in exactly one place.

The contract recovery must honor is the ROADMAP standing rule:
*infrastructure faults may cost latency, never bytes*. Pool breaks are
infrastructure — a SIGKILLed worker, an OOM kill, an unimportable spawn —
and are retried by resubmitting the in-flight points, which is safe
because points are idempotent by content hash
(:func:`repro.runner.parallel.point_key`). Simulation exceptions travel
as data through the invoker protocol ``(ok, value)`` and are **never**
retried: a deterministic failure is a result, not a fault.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable, Iterator, Sequence

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


def supervised_map(
    invoker_factory: Callable[[Callable[[Any], Any]], Callable[[Any], Any]],
    run: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    workers: int,
    chunksize: int,
    max_restarts: int | None = None,
) -> Iterator[Any]:
    """Yield invoker outcomes for ``points`` in order, surviving breaks.

    The streaming analogue of ``executor.map``: on a pool break the dead
    executor is replaced (after :func:`backoff_delay`) and the *unconsumed*
    suffix of points is resubmitted through a fresh invoker — fresh so a
    chaos fault spent by :func:`repro.chaos.inject.on_pool_break` is no
    longer shipped to the replacement workers. Consumed outcomes are never
    re-run (the caller has already cached them); progress resets the
    backoff counter, and ``max_restarts`` consecutive no-progress breaks
    raise :class:`~repro.errors.PoolBrokenError` carrying completed/total.
    """
    point_list = list(points)
    total = len(point_list)
    if max_restarts is None:
        max_restarts = DEFAULT_MAX_RESTARTS
    context = multiprocessing.get_context("spawn")
    position = 0
    consecutive = 0
    while position < total:
        executor = ProcessPoolExecutor(
            max_workers=max(1, min(workers, total - position)),
            mp_context=context,
        )
        try:
            outcomes = executor.map(
                invoker_factory(run),
                point_list[position:],
                chunksize=chunksize,
            )
            for outcome in outcomes:
                position += 1
                consecutive = 0
                yield outcome
        except BrokenExecutor as exc:
            # Workers died before/while running (an unimportable main
            # module under spawn, an OOM/SIGKILL). Respawn and resubmit
            # the unconsumed suffix instead of aborting the sweep — or,
            # after max_restarts consecutive no-progress breaks, surface
            # one coherent infrastructure error.
            consecutive += 1
            if consecutive > max_restarts:
                raise PoolBrokenError(
                    f"parallel sweep worker pool broke ({exc}) and stayed "
                    f"broken after {consecutive - 1} respawns; points must "
                    "be picklable and the run function importable by "
                    "spawned workers",
                    completed=position,
                    total=total,
                    restarts=consecutive - 1,
                ) from exc
            _chaos.on_pool_break()
            delay = backoff_delay(consecutive)
            _LOG.warning(
                "sweep worker pool broke (%s); respawning in %.2fs "
                "(attempt %d/%d, %d/%d points done)",
                exc,
                delay,
                consecutive,
                max_restarts,
                position,
                total,
            )
            time.sleep(delay)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)


class _Task:
    """One supervised submission: its inputs, its outer future, its tries."""

    __slots__ = ("run", "point", "outer", "attempts")

    def __init__(self, run: Callable[[Any], Any], point: Any) -> None:
        self.run = run
        self.point = point
        self.outer: Future[Any] = Future()
        self.attempts = 0


class SupervisedPool:
    """A long-lived, self-healing spawn pool.

    Wraps one ``ProcessPoolExecutor`` and decouples caller futures from
    executor futures: :meth:`submit` returns an *outer* future that
    survives pool death. When a worker dies, every in-flight task is
    requeued and a single supervisor thread respawns the executor (capped
    exponential backoff) and resubmits them through a fresh invoker —
    safe because points are idempotent by content hash. After
    ``max_restarts`` consecutive no-progress breaks the pool is declared
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
        invoker: Callable[[Callable[[Any], Any]], Callable[[Any], Any]],
        max_restarts: int = DEFAULT_MAX_RESTARTS,
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
        self._invoker = invoker
        self._max_restarts = max_restarts
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

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- internals -------------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        invoker = self._invoker(task.run)
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
