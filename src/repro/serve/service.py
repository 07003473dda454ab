"""The scenario service core: dedup, caching, and pooled compute.

:class:`ScenarioService` is the long-lived composition the ROADMAP's
Open Item 2 asked for — every ingredient already existed as a part, and
this module only arranges them into a request-serving shape:

- **request key** — :meth:`ScenarioSpec.content_hash` identifies a
  request; two requests with the same hash are *the same computation*.
- **in-flight dedup** — N concurrent identical specs fan in to one
  pending future and share its result; the lookup-or-dispatch path has
  no ``await`` between the cache checks and the in-flight registration,
  so under asyncio a key can never be computed twice concurrently.
- **two cache layers** — an in-memory :class:`LruCache` of serialized
  response bodies over the on-disk
  :class:`~repro.runner.parallel.ResultCache` (the same store the
  ``scenario run --cache-dir`` sweeps write, namespace ``"scenario"``),
  both consulted before compute and both filled after.
- **one pool task per miss** — a miss is handed to a persistent worker
  pool (:class:`~repro.runner.parallel.PersistentPool`) as a one-spec
  chunk in the same event-loop step that registers it in flight, so
  each spawn worker's :class:`~repro.runner.parallel.ProcessLocalCache`
  warm worlds survive across requests and a request pays no spawn cost.
- **backpressure** — computations in flight are bounded
  (``queue_limit``); at the bound a fresh miss is answered ``503`` with
  ``Retry-After`` instead of piling up in the pool's executor. Cache
  hits and dedup joins are still served while saturated *and* while
  draining — only fresh compute is refused.

**Byte identity.** A served body is always
:func:`serialize_outcome` of the :class:`~repro.scenario.ScenarioOutcome`
that a direct :func:`repro.scenario.run` (via
:func:`~repro.scenario.runner.run_summary`) produces — bit-for-bit, on
every path (compute, dedup share, LRU hit, disk hit). That is the
repository's determinism standing rule extended to the service boundary,
and ``tests/test_serve_identity.py`` pins it per bundled preset.

**Fault tolerance.** Infrastructure faults may cost latency, never bytes
(ROADMAP standing rule): every request is answered under a per-request
deadline (``504`` with a structured body when exceeded — the shielded
computation keeps running and fills the caches), and a broken worker
pool flips a breaker into **degraded inline-compute mode**: requests run
the same module-level chunk runner on a thread (``X-Source:
inline-degraded``), slower but byte-identical, while probe requests test
the pool (reviving it when dead) every ``probe_interval`` seconds until
one succeeds. ``/healthz`` reports pool liveness, restart count, and the
degraded flag. :mod:`repro.chaos` injects all of this deterministically.

Disk-cache lookups are small synchronous JSON reads performed on the
event loop; at this service's request sizes that costs far less than a
pool round trip. Revisit with ``run_in_executor`` if entries ever grow.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.runner.parallel import (
    PersistentPool,
    ResultCache,
    decode_result,
    encode_result,
)
from repro.runner.supervise import is_pool_break
from repro.scenario.registries import behaviors, protocols
from repro.scenario.runner import ScenarioOutcome, run_summary
from repro.scenario.spec import ScenarioSpec

_LOG = logging.getLogger("repro.serve")

#: Defaults for the service knobs (also the CLI defaults).
DEFAULT_LRU_SIZE = 256
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_RETRY_AFTER = 1

#: Per-request deadline. Generous on purpose: its job is to bound a
#: wedged pool, not to race healthy presets. ``None`` disables it.
DEFAULT_REQUEST_TIMEOUT = 60.0

#: While degraded, at most one probe chunk per this many seconds is sent
#: to the pool; everything else computes inline.
DEFAULT_PROBE_INTERVAL = 1.0


# -- canonical response serialization ------------------------------------------


def canonical_bytes(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def serialize_outcome(outcome: ScenarioOutcome) -> bytes:
    """The service wire form of one finished scenario.

    :func:`~repro.runner.parallel.encode_result` keeps the payload
    decodable by the same machinery the result cache uses
    (``decode_result`` rebuilds the :class:`ScenarioOutcome`), and the
    canonical dump makes equal outcomes serialize to equal bytes.
    """
    return canonical_bytes(encode_result(outcome))


def report_bytes(spec: ScenarioSpec) -> bytes:
    """Reference serialization: the exact bytes a direct run produces.

    This is the service's ground truth — every 200 response body for
    ``spec`` must equal this, bit-for-bit, whatever cache or dedup path
    served it.
    """
    return serialize_outcome(run_summary(spec))


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Structured error body: ``{"error", "field", "suggestions"}``.

    :class:`~repro.errors.SpecValidationError` carries the offending
    field and did-you-mean suggestions; other errors degrade to nulls so
    clients can always parse the same shape.
    """
    return {
        "error": str(exc),
        "field": getattr(exc, "field", None),
        "suggestions": list(getattr(exc, "suggestions", ())),
    }


def error_bytes(message: str) -> bytes:
    return canonical_bytes({"error": message, "field": None, "suggestions": []})


# -- worker-side chunk execution -----------------------------------------------


def run_serve_chunk(
    specs: Sequence[ScenarioSpec],
) -> list[tuple[str, Any]]:
    """Execute one compute chunk (module-level: spawn-worker safe).

    Returns one ``(verdict, payload)`` per spec, in order:

    - ``("ok", encoded_outcome)`` — ``encode_result`` form of the
      :class:`ScenarioOutcome`, JSON-safe and picklable;
    - ``("config", error_payload)`` — the spec failed deep validation
      (placement bounds, source coordinate, ...); a client error;
    - ``("run", message)`` — the simulation itself failed; a server
      error.

    Per-item isolation matters: one bad spec in a multi-spec chunk (a
    pool warm-up, say) must not poison the other specs' results.
    """
    results: list[tuple[str, Any]] = []
    for spec in specs:
        try:
            results.append(("ok", encode_result(run_summary(spec))))
        except ConfigurationError as exc:
            results.append(("config", error_payload(exc)))
        except Exception as exc:
            results.append(("run", f"{type(exc).__name__}: {exc}"))
    return results


class InlinePool:
    """A pool double running chunks synchronously in the caller.

    Used by tests (no spawn cost, monkeypatchable chunk runners work
    because nothing is pickled) and by ``--stdin-batch --workers 1``
    style one-shot runs where process fan-out buys nothing. Implements
    the same ``submit``/``unwrap``/``shutdown`` surface as
    :class:`~repro.runner.parallel.PersistentPool`.
    """

    workers = 1

    def submit(
        self, run: Callable[[Any], Any], point: Any
    ) -> "Future[tuple[bool, Any]]":
        future: "Future[tuple[bool, Any]]" = Future()
        try:
            future.set_result((True, run(point)))
        except Exception as exc:
            future.set_result(
                (False, (type(exc).__name__, str(exc), traceback.format_exc()))
            )
        return future

    unwrap = staticmethod(PersistentPool.unwrap)

    def shutdown(self, *, wait: bool = True) -> None:
        pass


# -- in-memory response cache --------------------------------------------------


class LruCache:
    """Serialized-response LRU keyed by scenario content hash.

    Sits above the on-disk result cache: a hit costs a dict lookup and
    returns the exact bytes to write to the socket. ``limit=0`` disables
    the layer. Eviction is least-recently-*used*: both ``get`` and
    ``put`` refresh an entry's recency.
    """

    def __init__(self, limit: int = DEFAULT_LRU_SIZE) -> None:
        if limit < 0:
            raise ConfigurationError(
                f"LRU limit must be >= 0 (0 disables), got {limit}"
            )
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()

    def get(self, key: str) -> bytes | None:
        try:
            body = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return body

    def put(self, key: str, body: bytes) -> None:
        if self.limit == 0:
            return
        self._entries[key] = body
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def keys(self) -> tuple[str, ...]:
        """Current keys, least-recently-used first (for tests/stats)."""
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


# -- service bookkeeping -------------------------------------------------------


@dataclass
class ServiceStats:
    """Request counters, one instance per :class:`ScenarioService`."""

    requests: int = 0
    lru_hits: int = 0
    disk_hits: int = 0
    deduped: int = 0
    computed: int = 0
    batches: int = 0
    errors: int = 0
    rejected: int = 0
    timeouts: int = 0
    degraded_requests: int = 0
    recoveries: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)

    def cache_hit_rate(self) -> float:
        return (
            (self.lru_hits + self.disk_hits) / self.requests
            if self.requests
            else 0.0
        )

    def dedup_rate(self) -> float:
        return self.deduped / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class ServeResult:
    """One request's answer, transport-agnostic.

    ``source`` says which layer produced the body (``"lru"``,
    ``"disk"``, ``"dedup"``, ``"computed"``, ``"inline-degraded"``) so
    transports can expose it (the HTTP front end's ``X-Source`` header)
    and tests can assert on it. ``retry_after`` is set on 503s and 504s.
    """

    status: int
    body: bytes
    scenario: str | None = None
    source: str | None = None
    retry_after: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class _Pending:
    """One computation in flight: key, spec, and the future waiters share."""

    key: str
    spec: ScenarioSpec
    future: "asyncio.Future[tuple[str, Any, str | None]]" = field(
        repr=False, default=None  # type: ignore[assignment]
    )


# -- the service ---------------------------------------------------------------


class ScenarioService:
    """Async request front end over the sweep substrate (see module doc).

    Lifecycle: construct, ``await start()`` inside a running event loop,
    serve via :meth:`submit_payload`/:meth:`submit_spec`, then
    ``await drain()`` — which stops accepting fresh compute, finishes
    everything in flight, resolves every waiter, and releases the pool.
    Cache hits keep being served during and after a drain.
    """

    def __init__(
        self,
        *,
        pool: Any = None,
        cache: ResultCache | None = None,
        lru_size: int = DEFAULT_LRU_SIZE,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        retry_after: int = DEFAULT_RETRY_AFTER,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        chunk_runner: Callable[
            [Sequence[ScenarioSpec]], list[tuple[str, Any]]
        ] = run_serve_chunk,
    ) -> None:
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError(
                "request_timeout must be > 0 (or None to disable), "
                f"got {request_timeout}"
            )
        if probe_interval < 0:
            raise ConfigurationError(
                f"probe_interval must be >= 0, got {probe_interval}"
            )
        self._pool = pool if pool is not None else InlinePool()
        self._cache = cache
        self.lru = LruCache(lru_size)
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.request_timeout = request_timeout
        self.probe_interval = probe_interval
        self.stats = ServiceStats()
        self._chunk_runner = chunk_runner
        self._degraded = False
        self._next_probe = 0.0
        self._inflight: dict[
            str, "asyncio.Future[tuple[str, Any, str | None]]"
        ] = {}
        self._batch_tasks: set["asyncio.Task[None]"] = set()
        self._draining = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Accept fresh compute again (idempotent)."""
        self._draining = False

    async def drain(self) -> None:
        """Finish work in flight, resolve every waiter, release the pool."""
        self._draining = True
        if self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks))
        self._pool.shutdown(wait=True)

    # -- request paths ---------------------------------------------------------

    async def submit_payload(
        self, raw: "bytes | str | Mapping[str, Any]"
    ) -> ServeResult:
        """Serve one request given its JSON body (or parsed payload)."""
        if isinstance(raw, (bytes, str)):
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                self.stats.errors += 1
                return ServeResult(
                    400, error_bytes(f"request body is not valid JSON: {exc}")
                )
        else:
            payload = raw
        try:
            spec = ScenarioSpec.from_dict(payload)
            # Cheap name resolution up front: unknown protocol/behavior
            # names answer instantly with did-you-mean suggestions. Deep
            # validation (placement bounds, source coordinate) runs in
            # the worker, where the world it builds is reused anyway.
            entry = protocols.get(spec.protocol)
            behaviors.get(spec.behavior or entry.default_behavior)
        except ConfigurationError as exc:
            self.stats.errors += 1
            return ServeResult(400, canonical_bytes(error_payload(exc)))
        return await self.submit_spec(spec)

    async def submit_spec(self, spec: ScenarioSpec) -> ServeResult:
        """Serve one validated spec (cache → dedup → pooled compute)."""
        self.stats.requests += 1
        key = spec.content_hash()
        # NOTE: no ``await`` between here and the in-flight registration
        # and dispatch below — the dedup guarantee (one compute per key)
        # relies on this whole lookup path being one atomic event-loop
        # step.
        body = self.lru.get(key)
        if body is not None:
            self.stats.lru_hits += 1
            return ServeResult(200, body, scenario=key, source="lru")
        if self._cache is not None:
            hit, outcome = self._cache.get(spec)
            if hit:
                body = serialize_outcome(outcome)
                self.lru.put(key, body)
                self.stats.disk_hits += 1
                return ServeResult(200, body, scenario=key, source="disk")
        pending = self._inflight.get(key)
        if pending is not None:
            self.stats.deduped += 1
            outcome = await self._await_outcome(pending)
            if outcome is None:
                return self._timeout_result(key)
            verdict, value, src = outcome
            return self._finish(key, verdict, value, source=src or "dedup")
        if self._draining:
            self.stats.rejected += 1
            return ServeResult(
                503,
                error_bytes("service is draining; retry against a live instance"),
                scenario=key,
                retry_after=self.retry_after,
            )
        if len(self._inflight) >= self.queue_limit:
            self.stats.rejected += 1
            return ServeResult(
                503,
                error_bytes(
                    f"service saturated ({self.queue_limit} computations "
                    "in flight); retry later"
                ),
                scenario=key,
                retry_after=self.retry_after,
            )
        future: "asyncio.Future[tuple[str, Any, str | None]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        self._dispatch([_Pending(key=key, spec=spec, future=future)])
        outcome = await self._await_outcome(future)
        if outcome is None:
            return self._timeout_result(key)
        verdict, value, src = outcome
        return self._finish(key, verdict, value, source=src or "computed")

    async def _await_outcome(
        self, future: "asyncio.Future[tuple[str, Any, str | None]]"
    ) -> "tuple[str, Any, str | None] | None":
        """Wait for a compute outcome under the per-request deadline.

        The shield keeps the computation (and its cache fills) running
        after a timeout: the deadline abandons the *wait*, not the
        *work*, so a client retrying after ``Retry-After`` typically
        lands on a warm cache. Returns ``None`` on deadline.
        """
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            return None

    def _timeout_result(self, key: str) -> ServeResult:
        self.stats.timeouts += 1
        return ServeResult(
            504,
            error_bytes(
                f"request deadline ({self.request_timeout:g}s) exceeded; "
                "the computation continues and will be cached — retry"
            ),
            scenario=key,
            retry_after=self.retry_after,
        )

    def _finish(
        self, key: str, verdict: str, value: Any, *, source: str
    ) -> ServeResult:
        if verdict == "ok":
            return ServeResult(200, value, scenario=key, source=source)
        self.stats.errors += 1
        if verdict == "config":
            return ServeResult(
                400, canonical_bytes(value), scenario=key, source=source
            )
        return ServeResult(
            500, error_bytes(str(value)), scenario=key, source=source
        )

    # -- compute dispatch ------------------------------------------------------

    def _dispatch(self, batch: list[_Pending]) -> None:
        """Hand a chunk to the pool; a separate task resolves it.

        :meth:`submit_spec` calls this with one item per miss, in the
        same event-loop step that registers it in flight. The pool never
        blocks on compute, so the request path does not either.
        """
        self.stats.batches += 1
        specs = [item.spec for item in batch]
        if not self._pool_ready():
            self._start_inline(batch, specs)
            return
        try:
            chunk_future = self._pool.submit(self._chunk_runner, specs)
        except Exception as exc:
            if is_pool_break(exc):
                self._enter_degraded(exc)
                self._start_inline(batch, specs)
                return
            for item in batch:
                self._settle(
                    item, ("run", f"{type(exc).__name__}: {exc}", None)
                )
            return
        task = asyncio.ensure_future(
            self._resolve(batch, asyncio.wrap_future(chunk_future))
        )
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _resolve(
        self, batch: list[_Pending], chunk: "asyncio.Future[tuple[bool, Any]]"
    ) -> None:
        try:
            results = self._pool.unwrap(
                [item.key for item in batch], await chunk
            )
        except Exception as exc:
            if is_pool_break(exc):
                # The pool died under this batch even after supervision
                # gave up. No request is dropped: flip the breaker and
                # answer this batch inline — latency, never bytes.
                self._enter_degraded(exc)
                await self._run_inline(batch, [item.spec for item in batch])
                return
            message = f"{type(exc).__name__}: {exc}"
            for item in batch:
                self._settle(item, ("run", message, None))
            return
        if self._degraded:
            # A probe came back: the pool is healthy again.
            self._degraded = False
            self.stats.recoveries += 1
            _LOG.warning("worker pool recovered; leaving degraded mode")
        self._complete(batch, results, source=None)

    def _pool_ready(self) -> bool:
        """Breaker gate: may this chunk try the pool?

        Healthy: always. Degraded: at most one probe chunk per
        ``probe_interval`` goes to the pool — reviving a dead
        :class:`~repro.runner.parallel.PersistentPool` first — and
        everything else computes inline until a probe succeeds.
        """
        if not self._degraded:
            return True
        now = time.monotonic()
        if now < self._next_probe:
            return False
        self._next_probe = now + self.probe_interval
        if not getattr(self._pool, "alive", True):
            revive = getattr(self._pool, "revive", None)
            if revive is None or not revive():
                return False
        return True

    def _enter_degraded(self, cause: BaseException) -> None:
        if not self._degraded:
            self._degraded = True
            _LOG.warning(
                "worker pool down (%s); serving in degraded inline-compute "
                "mode",
                cause,
            )
        self._next_probe = time.monotonic() + self.probe_interval

    def _start_inline(
        self, batch: list[_Pending], specs: list[ScenarioSpec]
    ) -> None:
        task = asyncio.ensure_future(self._run_inline(batch, specs))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_inline(
        self, batch: list[_Pending], specs: list[ScenarioSpec]
    ) -> None:
        """Compute a batch on a thread instead of the broken pool.

        Slower — no process parallelism, no warm spawn-worker worlds —
        but byte-identical: this is the same chunk runner the pool
        executes, so degraded responses still match
        :func:`report_bytes`.
        """
        self.stats.degraded_requests += len(batch)
        runner = self._chunk_runner
        if runner is None:
            for item in batch:
                self._settle(item, ("run", "no chunk runner configured", None))
            return
        try:
            results = await asyncio.to_thread(runner, specs)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            for item in batch:
                self._settle(item, ("run", message, None))
            return
        self._complete(batch, results, source="inline-degraded")

    def _complete(
        self,
        batch: list[_Pending],
        results: list[tuple[str, Any]],
        *,
        source: str | None,
    ) -> None:
        """Settle a computed batch, filling both cache layers on 200s."""
        for item, (verdict, payload) in zip(batch, results):
            if verdict == "ok":
                body = canonical_bytes(payload)
                self.stats.computed += 1
                self.lru.put(item.key, body)
                if self._cache is not None:
                    try:
                        self._cache.put(item.spec, decode_result(payload))
                    except Exception as exc:
                        # A failing store must not fail the request.
                        _LOG.warning(
                            "result-cache store failed for %s: %s",
                            item.key[:12],
                            exc,
                        )
                self._settle(item, ("ok", body, source))
            else:
                self._settle(item, (verdict, payload, source))

    def _settle(
        self, item: _Pending, outcome: "tuple[str, Any, str | None]"
    ) -> None:
        if self._inflight.get(item.key) is item.future:
            del self._inflight[item.key]
        if not item.future.done():
            item.future.set_result(outcome)

    # -- introspection ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded

    def health_payload(self) -> dict[str, Any]:
        """What ``GET /healthz`` serves: liveness, not just reachability."""
        return {
            "status": "degraded" if self._degraded else "ok",
            "draining": self._draining,
            "degraded": self._degraded,
            "pool_alive": bool(getattr(self._pool, "alive", True)),
            "pool_workers": getattr(self._pool, "workers", None),
            "pool_restarts": getattr(self._pool, "restarts", 0),
            "degraded_requests": self.stats.degraded_requests,
            "recoveries": self.stats.recoveries,
            "timeouts": self.stats.timeouts,
        }

    def stats_payload(self) -> dict[str, Any]:
        """What ``GET /stats`` serves."""
        payload: dict[str, Any] = dict(self.stats.snapshot())
        payload.update(
            cache_hit_rate=self.stats.cache_hit_rate(),
            dedup_rate=self.stats.dedup_rate(),
            lru_entries=len(self.lru),
            lru_limit=self.lru.limit,
            lru_evictions=self.lru.evictions,
            queue_limit=self.queue_limit,
            in_flight=len(self._inflight),
            draining=self._draining,
            degraded=self._degraded,
            pool_alive=bool(getattr(self._pool, "alive", True)),
            pool_restarts=getattr(self._pool, "restarts", 0),
            workers=getattr(self._pool, "workers", None),
            disk_cache=self._cache is not None,
            cache_recovered=(
                self._cache.stats.recovered if self._cache is not None else 0
            ),
        )
        return payload

