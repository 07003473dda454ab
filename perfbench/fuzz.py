"""Workload ``fuzz``: differential fuzz cases through ``run_case``.

Each case runs one sampled scenario three ways (fast paths, reference
twins, vector kernel), checks the oracles on every report and, for one
case in eight, replays it under injected cache faults — so here the
reference twins and cold world builds do the work that the fast paths
do in ``paper``. One operation is one case: ``SpecSampler.case_spec``
plus ``run_case``.

The cases are a fixed set of :data:`CASES` indices of a sampler with a
pinned master seed, so that every verdict can be checked against a
pinned case hash. Like ``python -m repro fuzz run``, a pass runs them in
index order; the run's seed picks the index the pass starts from (and
wraps around). A full shuffle would make the peak resident set depend
on which large cases happen to follow which, through the garbage
collector's timing, by up to 12%. Passes repeat until the run's time is
up, each starting from cold caches.

Check: every verdict is ok and every case hash equals its pinned value.
"""

from __future__ import annotations

import hashlib
import random
import time

from perfbench import program
from perfbench.calibrate import Calibrator
from perfbench.harness import Measured

#: Master seed of the case sampler (fixed: the pinned hashes depend on it).
MASTER_SEED = 2010
CASES = 600


def case_order(seed: int) -> list[int]:
    start = random.Random(seed).randrange(CASES)
    return [(start + offset) % CASES for offset in range(CASES)]


class Fuzz:
    name = "fuzz"

    def __init__(self, seed: int, pinned: dict) -> None:
        self.order = case_order(seed)
        self.expected = pinned["fuzz"]["case_hashes"]

    def prepare(self) -> None:
        """Nothing to set up before a pass."""

    def run_pass(self, cal: Calibrator, out: Measured) -> tuple[str, float]:
        """Run every case once; return the digest of the ordered verdicts
        and the pass's peak RSS."""
        from repro.fuzz.runner import FuzzCase, run_case
        from repro.fuzz.sampler import SpecSampler

        program.reset_process_caches()
        sampler = SpecSampler(MASTER_SEED)
        cal.sample()
        pass_digest = hashlib.sha256()
        for index in self.order:
            started = time.perf_counter()
            try:
                result = run_case(FuzzCase(index, sampler.case_spec(index)))
            except Exception as exc:
                out.attempted += 1
                out.fail(1, f"case {index} raised {type(exc).__name__}: {exc}")
                continue
            interval = (started, time.perf_counter())
            out.ops.append(interval)
            out.work.append(interval)
            out.attempted += 1
            verdict = "ok" if result.ok else "FAIL"
            if not result.ok:
                out.fail(1, f"case {index}: {result.failures[0]}")
            elif result.case_hash[:16] != self.expected[index]:
                out.fail(1, f"case {index} hash {result.case_hash[:16]} "
                            f"!= pinned {self.expected[index]}")
            pass_digest.update(f"{index}:{result.case_hash}:{verdict}\n".encode())
            cal.maybe_sample()
        return pass_digest.hexdigest(), program.peak_rss_mb()
