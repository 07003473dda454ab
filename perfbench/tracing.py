"""Spans around the calls into each layer, recorded from outside the program.

The traced run installs wrappers around the public entry points of each
``repro`` module (see :func:`install`). A wrapper records one span per
call — name, start, end and the span that was open when it started —
into flat in-memory arrays; nothing is written until the run ends.
A span's *self time* is its duration minus the time its child spans
cover. Nothing here edits the program: functions are replaced on their
class, or in every module that imported them by name, and the untraced
end-to-end run never calls :func:`install`.

Spans are recorded on the thread that installed the wrappers only
(calls from other threads pass straight through), so the span stack
stays well nested. Coroutine functions are wrapped so that each
resumption is its own span: their self time is the time they actually
ran, not the time they sat waiting for a pool or a socket.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_now_ns = time.perf_counter_ns


class SpanRecorder:
    """Spans as four parallel int64 arrays plus counters and samples."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.thread = threading.get_ident()
        #: Plain event counts (``<name>.calls`` / ``<name>.hits``, ...).
        self.counts: Counter[str] = Counter()
        #: Raw ``(start, end)`` perf_counter intervals, normalized later.
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: Unitless samples (batch sizes, ...).
        self.values: dict[str, list[float]] = defaultdict(list)

    def name_id_for(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(_now_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # -- aggregation -----------------------------------------------------------

    def _covered(self) -> list[int]:
        """Per span, the nanoseconds its direct children cover."""
        covered = [0] * len(self.start)
        for index, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += self.end[index] - self.start[index]
        return covered

    def totals(self) -> dict[str, "SpanTotals"]:
        """Per span name: call count, total and self nanoseconds."""
        covered = self._covered()
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for index, nid in enumerate(self.name_id):
            duration = self.end[index] - self.start[index]
            count[nid] += 1
            total[nid] += duration
            own[nid] += duration - covered[index]
        return {
            name: SpanTotals(count[nid], total[nid], own[nid])
            for nid, name in enumerate(self.names)
        }

    def tree(self) -> list[dict[str, Any]]:
        """Aggregate spans by their path from the root (the span tree)."""
        covered = self._covered()
        path_of: list[tuple[str, ...]] = []
        rows: dict[tuple[str, ...], list[int]] = {}
        for index, up in enumerate(self.parent):
            path = (path_of[up] if up >= 0 else ()) + (self.names[self.name_id[index]],)
            path_of.append(path)
            row = rows.setdefault(path, [0, 0, 0])
            duration = self.end[index] - self.start[index]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[index]
        return [
            {"path": "/".join(path), "count": c, "total_ns": t, "self_ns": s}
            for path, (c, t, s) in sorted(rows.items())
        ]

    def write(self, directory: Path, stem: str) -> None:
        """Write the raw spans (binary arrays) and the span tree (JSON)."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.bin", "wb") as handle:
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(handle)
        (directory / f"{stem}.tree.json").write_text(
            json.dumps(
                {"names": self.names, "spans": len(self), "tree": self.tree()},
                indent=1,
            )
        )


@dataclass(frozen=True)
class SpanTotals:
    count: int
    total_ns: int
    self_ns: int


# -- wrapper factories ---------------------------------------------------------


def span(rec: SpanRecorder, name: str | Callable[..., str], fn: Callable,
         on_result: Callable[[Any], None] | None = None) -> Callable:
    """Wrap a plain function: one span per call.

    ``name`` may be a callable of the call's ``(args, kwargs)`` for spans
    whose name depends on the arguments.
    """
    fixed = None if callable(name) else rec.name_id_for(name)
    main = rec.thread
    open_, close = rec.open, rec.close
    get_ident = threading.get_ident

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if get_ident() != main:
            return fn(*args, **kwargs)
        nid = fixed if fixed is not None else rec.name_id_for(name(args, kwargs))
        index = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def counted(rec: SpanRecorder, name: str, fn: Callable,
            hit: Callable[[Any], bool]) -> Callable:
    """Wrap a cheap lookup: count calls and hits, record no span."""
    counts = rec.counts
    calls, hits = f"{name}.calls", f"{name}.hits"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        counts[calls] += 1
        if hit(result):
            counts[hits] += 1
        return result

    return wrapper


class _TimedSteps:
    """Awaitable driving a coroutine, one span per resumption."""

    __slots__ = ("_coro", "_nid", "_rec")

    def __init__(self, coro: Any, nid: int, rec: SpanRecorder) -> None:
        self._coro, self._nid, self._rec = coro, nid, rec

    def __await__(self):  # noqa: C901 - mirrors the generator protocol
        coro, rec, nid = self._coro, self._rec, self._nid
        send_value: Any = None
        error: BaseException | None = None
        while True:
            index = rec.open(nid)
            try:
                if error is None:
                    yielded = coro.send(send_value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                rec.close(index)
                return stop.value
            except BaseException:
                rec.close(index)
                raise
            rec.close(index)
            try:
                send_value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                send_value, error = None, exc


def async_span(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a coroutine function: one span per resumption of its body."""
    nid = rec.name_id_for(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return _TimedSteps(fn(*args, **kwargs), nid, rec)

    return wrapper


# -- installation --------------------------------------------------------------


_MISSING = object()


class Patches:
    """Every attribute replaced, so the traced run can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        _assign(owner, attr, value)

    def function(self, original: Callable, wrapper: Callable) -> None:
        """Replace a function in every ``repro`` module that holds it."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` (inherited or not) on ``cls`` itself."""
        self.set(cls, attr, make(getattr(cls, attr)))

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                _assign(owner, attr, value)
        self._undo.clear()


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, attr, value)
    else:  # frozen dataclass instances (registry entries)
        object.__setattr__(owner, attr, value)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _classes_defining(attr: str) -> list[type]:
    """Classes of the program (not typing Protocols) that define ``attr``."""
    found = []
    for module in _repro_modules():
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and attr in value.__dict__
                    and not getattr(value, "_is_protocol", False)):
                found.append(value)
    return found


def install(rec: SpanRecorder) -> Patches:
    """Wrap each layer's entry points; import the modules first.

    Layers and span names:

    - radio: ``Medium.resolve_slot`` / ``resolve_slot_reference``,
      ``RoundDriver.run`` (``radio.driver``); the round memo and the
      shared batch-plan caches are counted, not spanned;
    - protocols: each registered protocol's ``build``, the flat engines'
      ``distribute``, ``vectorized.try_vector_run``;
    - network, scenario: ``Grid`` and ``NodeTable`` construction,
      ``scenario.runner.run`` and its warm-world lookup;
    - adversary, analysis: every adversary's ``on_slot``/``observe``,
      ``collect_outcome``/``collect_costs``;
    - experiments: ``Experiment.run`` per experiment id;
    - fuzz: spec sampling, the three run legs, oracles, report
      comparison and the chaos leg;
    - runner: ``sweep``, ``ResultCache.get``/``put``,
      ``PersistentPool.submit`` (batch size and round trip);
    - serve: ``handle_request``, ``ScenarioService.submit_spec`` and the
      queue wait between enqueue and dispatch.
    """
    import repro.analysis.verify as verify
    import repro.experiments.registry as registry
    import repro.fuzz.runner as fuzz_runner
    import repro.fuzz.sampler as sampler
    import repro.network.grid as grid_mod
    import repro.network.node as node_mod
    import repro.protocols.flat as flat
    import repro.protocols.vectorized as vectorized
    import repro.radio.mac as mac
    import repro.radio.medium as medium
    import repro.runner.parallel as parallel
    import repro.scenario.runner as scenario_runner
    import repro.serve.http as http
    import repro.serve.service as service
    from repro.scenario.registries import protocols

    patches = Patches()
    method = patches.method

    # radio
    method(medium.Medium, "resolve_slot",
           lambda fn: span(rec, "radio.resolve_slot", fn))
    method(medium.Medium, "resolve_slot_reference",
           lambda fn: span(rec, "radio.resolve_slot_reference", fn))
    method(mac.RoundDriver, "run", lambda fn: span(rec, "radio.driver", fn))
    method(medium.Medium, "round_memo_get",
           lambda fn: counted(rec, "radio.round_memo", fn, _not_none))
    method(medium.BatchPlanCache, "get",
           lambda fn: counted(rec, "radio.plan_cache", fn, _not_none))

    # protocols
    for name in protocols.names():
        entry = protocols.get(name)
        patches.set(entry, "build", span(rec, "protocols.build", entry.build))
    for cls in (flat.FlatThresholdEngine, flat.FlatCpaEngine):
        method(cls, "distribute",
               lambda fn: span(rec, "protocols.flat.distribute", fn))

    def vector_result(result: Any) -> None:
        rec.counts["protocols.vector.calls"] += 1
        if result is not None:
            rec.counts["protocols.vector.hits"] += 1

    patches.function(vectorized.try_vector_run,
                     span(rec, "protocols.vector", vectorized.try_vector_run,
                          vector_result))

    # network + scenario
    def grid_built(_result: Any) -> None:
        rec.counts["network.grid_build.calls"] += 1

    method(grid_mod.Grid, "__init__",
           lambda fn: span(rec, "network.grid_build", fn, grid_built))
    method(node_mod.NodeTable, "__init__",
           lambda fn: span(rec, "network.node_table", fn))
    patches.function(scenario_runner.run,
                     span(rec, "scenario.run", scenario_runner.run))
    world = scenario_runner._world_for
    traced_world = span(rec, "scenario.world", world)

    def world_for(spec: Any) -> Any:
        grids_before = rec.counts["network.grid_build.calls"]
        result = traced_world(spec)
        rec.counts["scenario.world.calls"] += 1
        if rec.counts["network.grid_build.calls"] == grids_before:
            rec.counts["scenario.world.hits"] += 1
        return result

    patches.function(world, world_for)

    # adversary + analysis
    for cls in _classes_defining("on_slot"):
        method(cls, "on_slot", lambda fn: span(rec, "adversary.on_slot", fn))
        if "observe" in cls.__dict__:
            method(cls, "observe", lambda fn: span(rec, "adversary.observe", fn))
    for fn in (verify.collect_outcome, verify.collect_costs):
        patches.function(fn, span(rec, "analysis.collect", fn))

    # experiments
    method(registry.Experiment, "run",
           lambda fn: span(rec, lambda a, k: f"experiments.{a[0].exp_id}", fn))

    # fuzz
    method(sampler.SpecSampler, "case_spec",
           lambda fn: span(rec, "fuzz.sample", fn))

    def leg(args: tuple, kwargs: dict) -> str:
        if kwargs.get("vector"):
            return "fuzz.leg.vector"
        return "fuzz.leg.fast" if kwargs.get("fast") else "fuzz.leg.reference"

    patches.function(fuzz_runner._run_mode, span(rec, leg, fuzz_runner._run_mode))
    for fn, name in ((fuzz_runner.check_invariants, "fuzz.oracles"),
                     (fuzz_runner.compare_reports, "fuzz.compare"),
                     (fuzz_runner._chaos_probe, "fuzz.chaos")):
        patches.function(fn, span(rec, name, fn))

    # runner
    patches.function(parallel.sweep, span(rec, "runner.sweep", parallel.sweep))

    def cache_get(result: Any) -> None:
        if result[0]:
            rec.counts["runner.result_cache.get.hits"] += 1

    method(parallel.ResultCache, "get",
           lambda fn: span(rec, "runner.result_cache.get", fn, cache_get))
    method(parallel.ResultCache, "put",
           lambda fn: span(rec, "runner.result_cache.put", fn))
    submit = parallel.PersistentPool.submit

    def pool_submit(self: Any, run: Any, point: Any) -> Any:
        started = time.perf_counter()
        future = submit(self, run, point)
        rec.counts["runner.pool.batches"] += 1
        rec.values["runner.pool.batch_size"].append(len(point))
        future.add_done_callback(
            lambda _f: rec.intervals["runner.pool.roundtrip"].append(
                (started, time.perf_counter())
            )
        )
        return future

    patches.set(parallel.PersistentPool, "submit", pool_submit)

    # serve
    patches.function(http.handle_request,
                     async_span(rec, "serve.handle", http.handle_request))
    method(service.ScenarioService, "submit_spec",
           lambda fn: async_span(rec, "serve.submit", fn))
    pending_cls = service._Pending
    enqueued: dict[int, float] = {}

    def pending(*args: Any, **kwargs: Any) -> Any:
        item = pending_cls(*args, **kwargs)
        enqueued[id(item)] = time.perf_counter()
        return item

    patches.set(service, "_Pending", pending)

    def dispatch(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any, batch: list) -> Any:
            now = time.perf_counter()
            for item in batch:
                started = enqueued.pop(id(item), None)
                if started is not None:
                    rec.intervals["serve.queue_wait"].append((started, now))
            return fn(self, batch)

        return wrapper

    method(service.ScenarioService, "_dispatch", dispatch)
    return patches


def _not_none(value: Any) -> bool:
    return value is not None
