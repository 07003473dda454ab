"""Unit tests for the parallel sweep engine (repro.runner.parallel).

Worker functions live at module level because the spawn start method
pickles them by reference; the points are primitives or frozen
dataclasses for the same reason.
"""

import multiprocessing
import time
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.runner.parallel import (
    PersistentPool,
    ResultCache,
    canonical_point,
    point_key,
    point_seed,
    sweep,
)
from repro.runner.parallel import SweepResult


@dataclass(frozen=True)
class DemoPoint:
    m: int
    label: str


def square(x):
    return x * x


def slow_inverse(x):
    # Larger points finish *sooner*, forcing out-of-order completion.
    time.sleep((4 - x) * 0.03)
    return -x


def raising(x):
    if x == 2:
        raise ValueError(f"bad point {x}")
    return x


class TestSerialSweep:
    def test_matches_legacy_sweep_semantics(self):
        result = sweep([1, 2, 3], square)
        assert result.points == (1, 2, 3)
        assert result.results == (1, 4, 9)

    def test_empty_point_list(self):
        result = sweep([], square)
        assert result == SweepResult((), ())
        assert len(result) == 0
        assert result.rows(lambda p, r: [p, r]) == []

    def test_empty_point_list_parallel(self):
        assert sweep([], square, workers=4) == SweepResult((), ())

    def test_exception_wrapped_as_simulation_error(self):
        with pytest.raises(SimulationError, match="bad point 2"):
            sweep([1, 2, 3], raising)

    def test_closures_allowed_serially(self):
        result = sweep([1, 2], lambda x: x + 10)
        assert result.results == (11, 12)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep([1], square, workers=-1)


class TestParallelSweep:
    def test_identical_to_serial(self):
        serial = sweep(list(range(10)), square, workers=1)
        parallel = sweep(list(range(10)), square, workers=4)
        assert serial == parallel

    def test_order_preserved_despite_completion_order(self):
        result = sweep([0, 1, 2, 3], slow_inverse, workers=4)
        assert result.points == (0, 1, 2, 3)
        assert result.results == (0, -1, -2, -3)

    def test_on_result_called_in_point_order(self):
        seen = []
        sweep(
            [0, 1, 2, 3],
            slow_inverse,
            workers=4,
            on_result=lambda p, r: seen.append((p, r)),
        )
        assert seen == [(0, 0), (1, -1), (2, -2), (3, -3)]

    def test_worker_exception_surfaces_not_hangs(self):
        with pytest.raises(SimulationError, match="bad point 2"):
            sweep([1, 2, 3, 4], raising, workers=3)

    def test_parallel_sweep_joins_its_workers_before_returning(self):
        # Workers left over from earlier tests' abandoned pools may still
        # be exiting; none of this sweep's may outlive the call.
        before = set(multiprocessing.active_children())
        result = sweep(list(range(7)), square, workers=2)
        assert result.results == (0, 1, 4, 9, 16, 25, 36)
        assert set(multiprocessing.active_children()) <= before

    def test_progress_reports_every_point(self):
        calls = []
        sweep([1, 2, 3], square, workers=2, progress=lambda d, t: calls.append((d, t)))
        # Initial (0, 3) call marks the sweep start for reusable printers.
        assert calls == [(0, 3), (1, 3), (2, 3), (3, 3)]


class TestPointIdentity:
    def test_key_is_deterministic(self):
        assert point_key((1, 2, "x")) == point_key((1, 2, "x"))
        assert point_key((1, 2, "x")) == (
            "0380ec53bff37820b04c5002b03653234f4e1577f3bafeeead3162952ac22330"
        )

    def test_key_distinguishes_points(self):
        assert point_key((1, 2)) != point_key((2, 1))
        assert point_key(DemoPoint(1, "a")) != point_key(DemoPoint(1, "b"))

    def test_dataclass_identity_includes_type(self):
        @dataclass(frozen=True)
        class OtherPoint:
            m: int
            label: str

        assert point_key(DemoPoint(1, "a")) != point_key(OtherPoint(1, "a"))

    def test_equal_dataclasses_share_key(self):
        assert point_key(DemoPoint(3, "z")) == point_key(DemoPoint(3, "z"))

    def test_canonical_dict_order_insensitive(self):
        assert canonical_point({"b": 1, "a": 2}) == canonical_point({"a": 2, "b": 1})

    def test_point_seed_golden_value(self):
        # Frozen regression value: a refactor of the derivation would
        # silently reshuffle every per-point stream.
        assert point_seed(42, (1, 2, "x")) == 2082773747702751431

    def test_point_seed_independent_of_position(self):
        assert point_seed(42, DemoPoint(1, "a")) == point_seed(42, DemoPoint(1, "a"))
        assert point_seed(42, DemoPoint(1, "a")) != point_seed(43, DemoPoint(1, "a"))


class TestCachedSweep:
    def test_cache_avoids_recomputation(self, tmp_path):
        calls = []

        def counting(x):
            calls.append(x)
            return x * 2

        cache = ResultCache(tmp_path)
        first = sweep([1, 2, 3], counting, cache=cache)
        assert calls == [1, 2, 3]
        second = sweep([1, 2, 3], counting, cache=cache)
        assert calls == [1, 2, 3]  # all hits, no recomputation
        assert first == second
        assert cache.stats.hits == 3

    def test_on_result_fires_for_cached_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep([1, 2], square, cache=cache)
        seen = []
        sweep([1, 2], square, cache=cache, on_result=lambda p, r: seen.append((p, r)))
        assert seen == [(1, 1), (2, 4)]

    def test_parallel_cache_equals_serial(self, tmp_path):
        serial = sweep(list(range(6)), square, cache=ResultCache(tmp_path / "a"))
        warm = ResultCache(tmp_path / "a")
        parallel = sweep(list(range(6)), square, workers=3, cache=warm)
        assert serial == parallel
        assert warm.stats.hits == 6


def bump_worker_counter(x):
    # Module-level state proves the worker process survives between
    # submissions (a fresh spawn would restart the count at 1).
    global _WORKER_CALLS
    try:
        _WORKER_CALLS += 1
    except NameError:
        _WORKER_CALLS = 1
    return _WORKER_CALLS


class TestInterruptedSweep:
    """Ctrl-C / SIGTERM mid-sweep: drain, report N/M, re-raise."""

    def _interrupt_at(self, done_at):
        def progress(done, total):
            if done == done_at:
                raise KeyboardInterrupt

        return progress

    def test_serial_reports_completed_points(self, capsys):
        with pytest.raises(KeyboardInterrupt):
            sweep([1, 2, 3, 4], square, progress=self._interrupt_at(2))
        err = capsys.readouterr().err
        assert "sweep interrupted: 2/4 points completed" in err
        assert "re-run to resume" in err

    def test_parallel_reports_completed_points(self, capsys):
        with pytest.raises(KeyboardInterrupt):
            sweep(
                [1, 2, 3, 4],
                square,
                workers=2,
                progress=self._interrupt_at(2),
            )
        err = capsys.readouterr().err
        assert "sweep interrupted: 2/4 points completed" in err

    def test_interrupt_before_first_point(self, capsys):
        with pytest.raises(KeyboardInterrupt):
            sweep([1, 2], square, progress=self._interrupt_at(0))
        assert "sweep interrupted: 0/2" in capsys.readouterr().err

    def test_completed_points_stay_cached(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            sweep([1, 2, 3], square, cache=cache, progress=self._interrupt_at(2))
        resumed = ResultCache(tmp_path)
        result = sweep([1, 2, 3], square, cache=resumed)
        assert result.results == (1, 4, 9)
        assert resumed.stats.hits == 2  # the interrupted run's survivors


class TestPersistentPool:
    def test_submit_unwrap_round_trip(self):
        with PersistentPool(1) as pool:
            future = pool.submit(square, 7)
            assert PersistentPool.unwrap(7, future.result()) == 49

    def test_workers_persist_between_submissions(self):
        # The whole point of the pool: module state (warm worlds in the
        # real service) survives from one chunk to the next.
        with PersistentPool(1) as pool:
            first = PersistentPool.unwrap(0, pool.submit(bump_worker_counter, 0).result())
            second = PersistentPool.unwrap(0, pool.submit(bump_worker_counter, 0).result())
        assert (first, second) == (1, 2)

    def test_worker_failure_unwraps_as_simulation_error(self):
        with PersistentPool(1) as pool:
            future = pool.submit(raising, 2)
            with pytest.raises(SimulationError, match="bad point 2"):
                PersistentPool.unwrap(2, future.result())

    def test_submit_after_shutdown_rejected(self):
        pool = PersistentPool(1)
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(ConfigurationError, match="shut down"):
            pool.submit(square, 1)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            PersistentPool(-2)

    def test_zero_means_default(self):
        pool = PersistentPool(0)
        try:
            assert pool.workers >= 1
        finally:
            pool.shutdown()
