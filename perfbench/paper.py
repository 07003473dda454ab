"""Workload ``paper``: regenerate every registered experiment, serially.

This is the repository's core use — reproducing the paper's tables —
run the way ``python -m repro run all --workers 1`` runs it. One pass
regenerates all 13 experiments in an order the seed permutes, each from
cold process-local caches (as ``python -m repro run eN`` would, so the
order does not decide which experiment pays for a shared world); one
operation is one sweep point, timed between the ``progress`` callbacks
of the experiment's sweeps. Passes repeat until the run's time is up.

Check: the sha256 of every experiment's rendered table equals the digest
pinned in ``pinned.json``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

from perfbench import program
from perfbench.calibrate import Calibrator
from perfbench.harness import Measured

EXPERIMENTS = tuple(f"e{i}" for i in range(1, 14))


def experiment_order(seed: int) -> list[str]:
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    return order


class Paper:
    name = "paper"

    def __init__(self, seed: int, pinned: dict) -> None:
        self.order = experiment_order(seed)
        self.expected = pinned["paper"]

    def prepare(self) -> None:
        """Nothing to set up before a pass."""

    def run_pass(self, cal: Calibrator, out: Measured) -> tuple[str, float]:
        """Regenerate all experiments once; return the pass's digest and
        peak RSS."""
        from repro.experiments import registry

        pass_digest = hashlib.sha256()
        for exp_id in self.order:
            experiment = registry.get(exp_id)
            program.reset_process_caches()
            gc.collect()
            cal.sample()
            mark = [time.perf_counter()]
            done = [0]

            def progress(done_now: int, _total: int) -> None:
                # sweep() calls progress(0, total) as it starts and then
                # once per finished point: only the latter end an op.
                interval = (mark[0], time.perf_counter())
                out.work.append(interval)
                if done_now:
                    out.ops.append(interval)
                    done[0] += 1
                cal.maybe_sample()
                mark[0] = time.perf_counter()

            try:
                table = experiment.format(experiment.run(workers=1, progress=progress))
            except Exception as exc:  # a crash is a failed op, not a crash
                out.attempted += done[0] + 1
                out.fail(done[0] + 1, f"{exp_id} raised {type(exc).__name__}: {exc}")
                continue
            out.work.append((mark[0], time.perf_counter()))  # rendering
            out.attempted += done[0]
            table_digest = hashlib.sha256(table.encode("utf-8")).hexdigest()
            if table_digest != self.expected[exp_id]:
                out.fail(done[0], f"{exp_id} table digest {table_digest[:16]} "
                                  f"!= pinned {self.expected[exp_id][:16]}")
            pass_digest.update(f"{exp_id}:{table_digest}\n".encode())
        return pass_digest.hexdigest(), program.peak_rss_mb()
