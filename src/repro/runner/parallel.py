"""Parameter sweeps — serial or parallel — with deterministic results and
on-disk caching.

This is the execution substrate behind every experiment harness: it maps
a list of configuration points through a runner function, optionally
fanning the points out over a :class:`PersistentPool` of spawn workers
and memoizing per-point results on disk. ``workers=1`` (the default) is
the plain serial loop.

Design constraints, in order:

1. **Determinism.** A parallel sweep returns bit-for-bit the same
   :class:`SweepResult` as a serial one. Points are
   self-contained (a worker needs nothing but the point), results are
   collected in submission order, and per-point randomness comes from
   seed fields the point itself carries — never from worker identity or
   scheduling. Harnesses that want a seed without adding a field can
   derive one from the point's stable hash via :func:`point_seed`.
2. **Spawn safety.** Workers are started with the ``spawn`` method (the
   only method available everywhere), so ``run`` must be a module-level
   function and every point must be picklable. Closures and lambdas are
   fine for ``workers=1``, which falls back to a serial loop.
3. **Cheap re-runs.** An optional :class:`ResultCache` keys results by a
   stable SHA-256 hash of the canonical JSON form of the point, so
   re-running an experiment only computes points whose configuration
   changed. Corrupted or unreadable cache entries degrade to misses.

Worker failures never hang the sweep: any exception raised by ``run`` —
in a worker or in the serial path — surfaces as
:class:`~repro.errors.SimulationError` naming the offending point and
carrying the original traceback. *Infrastructure* failures (a worker
SIGKILLed mid-point, a full disk under the cache) are a different
species: the pool (:mod:`repro.runner.supervise`) respawns itself and
resubmits in-flight points (idempotent by :func:`point_key`), and cache
stores degrade to log-and-continue — per the ROADMAP standing rule,
infrastructure faults may cost latency, never bytes. Both recovery paths
are exercised deterministically by :mod:`repro.chaos` through the
injection points registered at the bottom of this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import logging
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.chaos import inject as _chaos
from repro.errors import ConfigurationError, PoolBrokenError, SimulationError
from repro.runner.supervise import (
    PersistentPool,
    default_workers,
    describe_worker_failure as _describe_failure,
)
from repro.sim.rng import derive_seed

#: Cache-corruption warnings go here (log-and-recompute, never raise).
_LOG = logging.getLogger("repro.cache")

PointT = TypeVar("PointT")
ResultT = TypeVar("ResultT")

#: Sentinel marking a sweep slot whose result has not arrived yet.
_PENDING = object()


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All (point, result) pairs of one sweep."""

    points: tuple[Any, ...]
    results: tuple[Any, ...]

    def rows(self, to_row: Callable[[Any, Any], Sequence[Any]]) -> list[Sequence[Any]]:
        return [to_row(p, r) for p, r in zip(self.points, self.results)]

    def __len__(self) -> int:
        return len(self.points)


# -- stable point identity -----------------------------------------------------


def canonical_point(point: Any) -> Any:
    """Reduce a config point to a canonical JSON-serializable form.

    Objects exposing ``__canonical_json__()`` (notably
    :class:`repro.scenario.ScenarioSpec`) define their own canonical form,
    so their cache key equals their content hash regardless of how they
    were constructed. Dataclasses become
    ``{"__dataclass__": qualified-name, **fields}``,
    mappings get sorted keys, and tuples/lists/sets become lists (sets are
    sorted by their canonical JSON encoding so iteration order cannot leak
    into the key). Unknown objects fall back to ``repr`` — stable for the
    frozen value-style dataclasses used as sweep points, and good enough
    to *distinguish* anything else.
    """
    canonical = getattr(point, "__canonical_json__", None)
    if callable(canonical):
        return canonical_point(canonical())
    if dataclasses.is_dataclass(point) and not isinstance(point, type):
        encoded = {
            f.name: canonical_point(getattr(point, f.name))
            for f in dataclasses.fields(point)
        }
        encoded["__dataclass__"] = _qualified_name(type(point))
        return encoded
    if isinstance(point, dict):
        return {str(k): canonical_point(v) for k, v in sorted(point.items(), key=lambda kv: str(kv[0]))}
    if isinstance(point, (list, tuple)):
        return [canonical_point(item) for item in point]
    if isinstance(point, (set, frozenset)):
        items = [canonical_point(item) for item in point]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(point, (str, int, float, bool)) or point is None:
        return point
    return repr(point)


def point_key(point: Any) -> str:
    """Stable hex digest identifying a config point across processes/runs."""
    payload = json.dumps(
        canonical_point(point), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_seed(master_seed: int, point: Any) -> int:
    """Derive the per-point RNG seed for a sweep point.

    Pure function of ``(master_seed, point)`` — the same point gets the
    same seed whether it runs serially, in any worker, or from cache,
    and independently of its position in the point list.
    """
    return derive_seed(master_seed, "sweep-point", point_key(point))


# -- on-disk result cache ------------------------------------------------------


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def encode_result(value: Any) -> Any:
    """Encode a sweep result into JSON-serializable form.

    Handles the flat frozen dataclasses experiments use as per-point
    results (fields of primitives, tuples, or nested such dataclasses).
    Anything JSON already understands passes through.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _qualified_name(type(value)),
            "fields": {
                f.name: encode_result(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                # JSON would stringify the key and a cache hit would hand
                # back a differently-typed result than a cache miss.
                raise TypeError(
                    f"cache results may only contain str-keyed dicts, "
                    f"got key {key!r}"
                )
        return {k: encode_result(v) for k, v in value.items()}
    return value


def decode_result(payload: Any) -> Any:
    """Inverse of :func:`encode_result`.

    Sequences inside a decoded dataclass become tuples (the experiments'
    result dataclasses are frozen and tuple-valued); top-level and
    dict-valued sequences stay lists.
    """
    if isinstance(payload, dict) and "__dataclass__" in payload:
        module_name, _, qualname = payload["__dataclass__"].partition(":")
        cls: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            cls = getattr(cls, part)
        fields = {
            name: _decode_field(value)
            for name, value in payload["fields"].items()
        }
        return cls(**fields)
    if isinstance(payload, list):
        return [decode_result(item) for item in payload]
    if isinstance(payload, dict):
        return {k: decode_result(v) for k, v in payload.items()}
    return payload


def _decode_field(value: Any) -> Any:
    decoded = decode_result(value)
    if isinstance(decoded, list):
        return tuple(decoded)
    return decoded


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance.

    ``corrupt`` counts misses caused by an unreadable/truncated/mismatched
    entry (a subset of ``misses``): the cache recovered by recomputing,
    but the on-disk file was bad and has been or will be overwritten.
    ``recovered`` counts the completions of that story — corrupt entries
    this instance later overwrote with a good result.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    recovered: int = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """On-disk JSON memo of sweep results, keyed by config-point hash.

    One file per point: ``<directory>/<namespace>-<sha256>.json`` holding
    the canonical point (for human inspection) and the encoded result. A
    point whose configuration changes hashes to a new key, so stale
    entries are never served — invalidation is structural, not temporal.
    Unreadable, truncated, or mismatched entries count as misses and are
    overwritten on the next store; a cache can never make a sweep fail.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        namespace: str = "sweep",
        encode: Callable[[Any], Any] = encode_result,
        decode: Callable[[Any], Any] = decode_result,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.namespace = namespace
        self._encode = encode
        self._decode = decode
        self.stats = CacheStats()
        self._corrupt_keys: set[str] = set()

    def path_for(self, point: Any) -> Path:
        return self.directory / f"{self.namespace}-{point_key(point)}.json"

    def get(self, point: Any) -> tuple[bool, Any]:
        """Return ``(hit, value)``; corrupted entries are logged misses."""
        path = self.path_for(point)
        key = point_key(point)
        _chaos.cache_read_fault(key, path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["key"] != key:
                raise KeyError("key mismatch")
            value = self._decode(payload["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception as exc:
            # Corrupted/truncated/undecodable: recover as a miss (the next
            # store overwrites the bad file) but say so — silent recovery
            # hides a dying disk or a writer bug.
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._corrupt_keys.add(key)
            _LOG.warning(
                "corrupt cache entry %s (%s: %s); recomputing and "
                "overwriting",
                path.name,
                type(exc).__name__,
                exc,
            )
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, point: Any, value: Any) -> None:
        """Store a result atomically; non-serializable results are rejected."""
        key = point_key(point)
        try:
            body = json.dumps(
                {
                    "key": key,
                    "point": canonical_point(point),
                    "result": self._encode(value),
                },
                sort_keys=True,
            )
        except TypeError as exc:
            raise ConfigurationError(
                f"sweep result for point {point!r} is not JSON-serializable; "
                "cache results must be primitives, tuples, or dataclasses "
                f"of those: {exc}"
            ) from exc
        injected = _chaos.cache_write_fault(key)
        if injected is not None:
            raise injected
        path = self.path_for(point)
        # The tmp name must be unique per process: two workers caching
        # the same point concurrently would otherwise interleave writes
        # into one shared tmp file before either os.replace lands,
        # publishing a corrupted entry. A per-process name keeps every
        # write private until its atomic rename.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            # fsync before the rename: os.replace is atomic in the
            # namespace but says nothing about data reaching the disk; a
            # crash between rename and writeback would publish a
            # truncated entry that only the corrupt-entry counter
            # catches on some later read.
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.stats.stores += 1
        if key in self._corrupt_keys:
            self._corrupt_keys.discard(key)
            self.stats.recovered += 1


@dataclasses.dataclass(frozen=True)
class CacheDirStats:
    """What ``python -m repro cache stats`` reports about one cache dir.

    ``namespaces`` maps each namespace present in the directory to its
    ``(entries, bytes, corrupt)`` triple; the top-level fields are the
    totals. ``corrupt`` counts files that fail the same checks a
    :meth:`ResultCache.get` performs (JSON parse, ``key``/``result``
    presence, key-matches-filename), i.e. entries that would be recovered
    as misses and overwritten at the next store. ``stale_tmp`` counts
    leftover ``*.tmp`` staging files from interrupted stores — harmless
    by construction (the fsync + atomic-rename discipline means an
    interrupted write never published), but visible so a crashy writer
    doesn't silently fill the disk.
    """

    directory: str
    entries: int
    total_bytes: int
    corrupt: int
    namespaces: tuple[tuple[str, int, int, int], ...]
    stale_tmp: int = 0


def scan_cache_dir(directory: str | os.PathLike[str]) -> CacheDirStats:
    """Inventory a result-cache directory without touching its contents.

    Walks every ``<namespace>-<sha256>.json`` entry, sizes it, and probes
    it for the corruption modes :meth:`ResultCache.get` recovers from.
    Unreadable files count as corrupt rather than failing the scan — the
    stats helper must work precisely when the cache is damaged.
    """
    root = Path(directory)
    per_ns: dict[str, list[int]] = {}  # name -> [entries, bytes, corrupt]
    for path in sorted(root.glob("*.json")):
        stem = path.name[: -len(".json")]
        namespace, dash, key = stem.rpartition("-")
        if not dash:
            namespace, key = "(unnamed)", stem
        bucket = per_ns.setdefault(namespace, [0, 0, 0])
        bucket[0] += 1
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        bucket[1] += size
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["key"] != key or "result" not in payload:
                raise KeyError("key mismatch")
        except Exception:
            bucket[2] += 1
    namespaces = tuple(
        (name, entries, size, corrupt)
        for name, (entries, size, corrupt) in sorted(per_ns.items())
    )
    return CacheDirStats(
        directory=str(root),
        entries=sum(ns[1] for ns in namespaces),
        total_bytes=sum(ns[2] for ns in namespaces),
        corrupt=sum(ns[3] for ns in namespaces),
        namespaces=namespaces,
        stale_tmp=sum(1 for _ in root.glob("*.json.*.tmp")),
    )


#: Staging files younger than this may belong to an in-flight store and
#: are never pruned; older ones are leftovers of an interrupted writer
#: (the fsync + atomic-rename discipline means they never published).
STALE_TMP_AGE_S = 60.0


@dataclasses.dataclass(frozen=True)
class PruneResult:
    """What ``python -m repro cache prune`` did (or would do, dry-run).

    ``removed``/``removed_bytes`` cover cache entries evicted by the age
    and size policies; ``removed_tmp`` counts abandoned ``*.tmp``
    staging files swept alongside. ``kept``/``kept_bytes`` describe the
    surviving cache.
    """

    directory: str
    examined: int
    removed: int
    removed_bytes: int
    removed_tmp: int
    kept: int
    kept_bytes: int
    dry_run: bool


def prune_cache_dir(
    directory: str | os.PathLike[str],
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> PruneResult:
    """Evict result-cache entries by age and/or total size, oldest first.

    The cache's invalidation is structural (content-hash keys), so any
    entry is safe to remove — a pruned point is simply recomputed on the
    next sweep that needs it. Two policies compose: entries older than
    ``max_age_s`` go first, then the oldest remaining entries until the
    directory fits in ``max_bytes``. Abandoned staging files (older than
    :data:`STALE_TMP_AGE_S`) are always swept. ``dry_run`` reports the
    same :class:`PruneResult` without unlinking anything; ``now``
    overrides the wall clock for tests.
    """
    if max_bytes is None and max_age_s is None:
        raise ConfigurationError(
            "cache prune needs a policy: pass max_bytes and/or max_age_s"
        )
    if max_bytes is not None and max_bytes < 0:
        raise ConfigurationError(f"max_bytes must be >= 0, got {max_bytes}")
    if max_age_s is not None and max_age_s < 0:
        raise ConfigurationError(f"max_age_s must be >= 0, got {max_age_s}")
    root = Path(directory)
    if not root.is_dir():
        raise ConfigurationError(f"not a cache directory: {root}")
    clock = time.time() if now is None else now
    entries: list[tuple[float, str, int, Path]] = []
    for path in sorted(root.glob("*.json")):
        try:
            st = path.stat()
        except OSError:
            continue  # vanished mid-scan (a concurrent prune or writer)
        entries.append((st.st_mtime, path.name, st.st_size, path))
    doomed: list[tuple[int, Path]] = []
    survivors: list[tuple[float, str, int, Path]] = []
    for mtime, name, size, path in entries:
        if max_age_s is not None and clock - mtime > max_age_s:
            doomed.append((size, path))
        else:
            survivors.append((mtime, name, size, path))
    if max_bytes is not None:
        # Oldest first; file name breaks mtime ties so a dry run and the
        # real prune agree on coarse-timestamp filesystems.
        survivors.sort()
        total = sum(size for _mtime, _name, size, _path in survivors)
        while survivors and total > max_bytes:
            _mtime, _name, size, path = survivors.pop(0)
            doomed.append((size, path))
            total -= size
    removed_tmp = 0
    for tmp in sorted(root.glob("*.json.*.tmp")):
        try:
            age = clock - tmp.stat().st_mtime
        except OSError:
            continue
        if age > STALE_TMP_AGE_S:
            removed_tmp += 1
            if not dry_run:
                tmp.unlink(missing_ok=True)
    if not dry_run:
        for _size, path in doomed:
            path.unlink(missing_ok=True)
    return PruneResult(
        directory=str(root),
        examined=len(entries),
        removed=len(doomed),
        removed_bytes=sum(size for size, _path in doomed),
        removed_tmp=removed_tmp,
        kept=len(survivors),
        kept_bytes=sum(size for *_rest, size, _path in survivors),
        dry_run=dry_run,
    )


# -- process-local warm-object cache -------------------------------------------


class ProcessLocalCache:
    """A tiny keyed cache for expensive immutable-per-key objects.

    The scenario runner uses one to share warm ``Grid`` (CSR tables) /
    ``TdmaSchedule`` / ``Medium`` (delivery memo) instances across the
    sweep points a worker process executes, so a 500-point sweep builds
    each grid once per worker instead of once per point. Spawned workers
    each get their own copy of the module state, hence *process-local*:
    nothing here is shared or locked across processes.

    Entries are dropped wholesale when ``limit`` distinct keys
    accumulate — sweeps touch a handful of grid shapes, so eviction
    sophistication would buy nothing.
    """

    def __init__(self, limit: int = 8) -> None:
        if limit < 1:
            raise ConfigurationError(f"cache limit must be >= 1, got {limit}")
        self.limit = limit
        self._entries: dict[Any, Any] = {}

    def get_or_build(self, key: Any, factory: Callable[[], Any]) -> Any:
        try:
            return self._entries[key]
        except KeyError:
            pass
        value = factory()
        if len(self._entries) >= self.limit:
            self._entries.clear()
        self._entries[key] = value
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


# -- progress reporting --------------------------------------------------------


class SweepProgress:
    """Progress/ETA line printer for long sweeps (``\\r``-updating).

    Usable directly as the ``progress`` callback of :func:`sweep`. One
    instance may be threaded through several consecutive sweeps (an
    experiment like E9 runs more than one): the ETA re-anchors whenever
    the ``done`` counter stops increasing, so each sweep's estimate only
    reflects its own points.
    """

    def __init__(self, label: str, *, stream: Any = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._started = time.perf_counter()
        self._last_done: int | None = None
        self._done_at_start = 0

    def __call__(self, done: int, total: int) -> None:
        now = time.perf_counter()
        if self._last_done is None or done <= self._last_done:
            self._started = now  # a new sweep began (or cached prefill)
            self._done_at_start = done
        self._last_done = done
        elapsed = now - self._started
        computed = done - self._done_at_start
        if done >= total:
            suffix = f"took {elapsed:5.1f}s"
        elif computed > 0:
            eta = elapsed / computed * (total - done)
            suffix = f"eta {eta:5.1f}s"
        else:
            suffix = "eta ..."
        end = "\n" if done >= total else ""
        self.stream.write(
            f"\r  {self.label}: {done}/{total} points, {suffix}{end}"
        )
        self.stream.flush()


# -- the sweep itself ----------------------------------------------------------


def _report_interrupt(done: int, total: int) -> None:
    """One clean line on Ctrl-C/SIGTERM instead of a pool unwind splat.

    Cached points survive the interrupt (each is stored as it completes),
    so a re-run with the same ``--cache-dir`` resumes where this one
    stopped — worth saying at the moment the user most wants to know.
    """
    sys.stderr.write(
        f"\nsweep interrupted: {done}/{total} points completed; "
        "cached points are kept, re-run to resume\n"
    )
    sys.stderr.flush()


def _store_result(cache: ResultCache, point: Any, value: Any) -> None:
    """Store a fresh result, tolerating infrastructure store failures.

    A cache can never make a sweep fail: the result is already in hand,
    so an ``OSError`` on store (full or read-only disk — also what
    :mod:`repro.chaos` injects for ``cache-write-fail``) costs a future
    recompute, not this run. Non-serializable results still raise
    :class:`~repro.errors.ConfigurationError` — a caller bug, not
    infrastructure.
    """
    try:
        cache.put(point, value)
    except OSError as exc:
        _LOG.warning(
            "result-cache store failed for %s (%s); continuing uncached",
            point_key(point)[:12],
            exc,
        )


def sweep(
    points: Iterable[PointT],
    run: Callable[[PointT], ResultT],
    *,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    on_result: Callable[[PointT, ResultT], None] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> SweepResult:
    """Run ``run`` over every point and collect results in point order.

    ``workers=1`` (the default) is a serial loop; ``workers>1`` submits
    each uncached point to one :class:`PersistentPool` of spawn workers
    and consumes the results in point order, joining the workers before
    returning. ``workers=0`` or ``None`` picks :func:`default_workers`.

    ``cache`` short-circuits points whose results are already on disk and
    stores fresh results as they arrive. ``on_result`` is always invoked
    in point order — under parallelism a finished point's callback waits
    until every earlier point has a result. ``progress`` is called as
    ``progress(done, total)`` after each completed point.

    Any exception from ``run`` is re-raised as
    :class:`~repro.errors.SimulationError` naming the point.
    """
    point_list = list(points)
    total = len(point_list)
    if workers is None or workers == 0:
        workers = default_workers()
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if total == 0:
        return SweepResult((), ())

    results: list[Any] = [_PENDING] * total
    pending: list[int] = []
    for index, point in enumerate(point_list):
        if cache is not None:
            hit, value = cache.get(point)
            if hit:
                results[index] = value
                continue
        pending.append(index)

    done_count = total - len(pending)
    cursor = 0  # next point index awaiting its in-order on_result call

    def flush() -> None:
        """Fire in-order callbacks for every contiguous finished slot."""
        nonlocal cursor
        while cursor < total and results[cursor] is not _PENDING:
            if on_result is not None:
                on_result(point_list[cursor], results[cursor])
            cursor += 1

    if progress is not None:
        # Initial call (possibly done=0) marks the start of this sweep so
        # reusable progress printers can re-anchor their clocks.
        try:
            progress(done_count, total)
        except KeyboardInterrupt:
            _report_interrupt(done_count, total)
            raise

    # The serial path calls ``run`` in this process, never through the
    # pool's invoker: an armed worker-crash fault must not SIGKILL the
    # parent. The pool caps its size to the machine (CPU-bound workers
    # beyond the core count buy nothing) but is kept even at one
    # process, so spawn-safety is exercised identically everywhere.
    pool = (
        PersistentPool(min(workers, len(pending)))
        if workers > 1 and len(pending) > 1
        else None
    )

    def computed() -> Iterator[tuple[int, Any]]:
        """``(index, value)`` of every pending point, in point order."""
        if pool is None:
            for index in pending:
                point = point_list[index]
                try:
                    value = run(point)
                except Exception as exc:
                    raise SimulationError(
                        _describe_failure(
                            point, type(exc).__name__, str(exc),
                            traceback.format_exc(),
                        )
                    ) from exc
                yield index, value
            return
        futures = [pool.submit(run, point_list[index]) for index in pending]
        for index, future in zip(pending, futures):
            yield index, pool.unwrap(point_list[index], future.result())

    try:
        for index, value in computed():
            results[index] = value
            if cache is not None:
                _store_result(cache, point_list[index], value)
            done_count += 1
            flush()
            if progress is not None:
                progress(done_count, total)
        if pool is not None:
            # Every future is done: this only joins the idle workers.
            pool.shutdown()
    except KeyboardInterrupt:
        # Ctrl-C/SIGTERM mid-sweep: report progress cleanly and let the
        # interrupt propagate (the pool is abandoned below) instead of
        # the executor's noisy unwind.
        _report_interrupt(done_count, total)
        raise
    except PoolBrokenError as exc:
        # Supervision respawned and resubmitted up to its restart budget
        # and the pool stayed broken. Flush the in-order callbacks for
        # everything that did complete — each of those points was cached
        # as it arrived, so a re-run resumes — then surface one coherent
        # error carrying the progress counters.
        flush()
        raise PoolBrokenError(
            f"{exc} [{done_count}/{total} points completed and cached; "
            "re-run to resume]",
            completed=done_count,
            total=total,
            restarts=exc.restarts,
        ) from exc
    finally:
        if pool is not None:
            pool.shutdown(wait=False)  # no-op after the clean shutdown
    flush()
    return SweepResult(tuple(point_list), tuple(results))


# -- batched probes ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProbeBatch:
    """Results of one :func:`probe_batch` call, in submission order.

    ``computed + cached + deduped == len(results)``: every submitted
    point was either executed, served from the on-disk cache, or folded
    into an identical point earlier in the same batch.
    """

    results: tuple[Any, ...]
    computed: int
    cached: int
    deduped: int


def probe_batch(
    points: Iterable[PointT],
    run: Callable[[PointT], ResultT],
    *,
    workers: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ProbeBatch:
    """Run a batch of probe points through the sweep substrate, deduplicated.

    Adaptive drivers (:mod:`repro.analysis.search`, the scenario atlas)
    generate probe batches in which the same configuration can appear
    more than once — several axis searches share their base spec, and a
    bisection step may re-request an endpoint. A plain :func:`sweep`
    would burn a cache lookup (or worse, a compute) per duplicate;
    ``probe_batch`` folds duplicates by :func:`point_key` before
    sweeping and fans the shared result back out, so callers get one
    result per submitted point without caring about overlap.

    The returned counters make incremental behavior observable:
    ``cached`` counts unique points served from ``cache`` (misses caused
    by corrupt entries still count as computed), which is what the
    atlas's "re-runs are incremental" guarantee is asserted against.
    """
    point_list = list(points)
    unique_indexes: dict[str, int] = {}
    unique_points: list[Any] = []
    slot_of: list[int] = []
    for point in point_list:
        key = point_key(point)
        slot = unique_indexes.get(key)
        if slot is None:
            slot = len(unique_points)
            unique_indexes[key] = slot
            unique_points.append(point)
        slot_of.append(slot)
    hits_before = cache.stats.hits if cache is not None else 0
    result = sweep(
        unique_points, run, workers=workers, cache=cache, progress=progress
    )
    cached = (cache.stats.hits - hits_before) if cache is not None else 0
    return ProbeBatch(
        results=tuple(result.results[slot] for slot in slot_of),
        computed=len(unique_points) - cached,
        cached=cached,
        deduped=len(point_list) - len(unique_points),
    )


# -- chaos injection points ----------------------------------------------------
# Registered at module bottom, after the hooks they describe exist — the
# same self-registration idiom as repro.scenario.registries. These are
# the compute substrate's fault surfaces; repro chaos enumerates them to
# prove every injectable kind has a recovery path under test.

from repro import seams as _seams  # noqa: E402

_seams.register_chaos(
    _seams.ChaosPoint(
        name="pool-worker",
        module="repro.runner.supervise",
        hook="repro.chaos.inject.fire_worker_faults",
        kinds=("worker-crash", "worker-slow"),
        description=(
            "spawn worker SIGKILL/delay as a matching point is picked up "
            "(PersistentPool's _Invoker); recovered by supervised respawn "
            "+ resubmission"
        ),
    )
)
_seams.register_chaos(
    _seams.ChaosPoint(
        name="result-cache",
        module="repro.runner.parallel",
        hook="repro.chaos.inject.cache_read_fault",
        kinds=("cache-corrupt", "cache-write-fail"),
        description=(
            "disk-cache entry mangled before a read / OSError on a store "
            "(ResultCache); recovered by recompute-and-overwrite"
        ),
    )
)
