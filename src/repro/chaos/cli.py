"""The ``python -m repro chaos`` command: replay fault plans, assert bytes.

``chaos run`` is the executable form of the standing rule *infrastructure
faults may cost latency, never bytes*: for each target preset it computes
fault-free reference bytes (:func:`repro.serve.service.report_bytes`)
for a small seed-varied point set, then replays fault plans against the
two production surfaces —

- **sweep leg** — a parallel :func:`repro.runner.parallel.sweep`, one
  pool task per point (twice, over a shared temp cache, so read-side
  corruption faults get a stored entry to mangle) with the plan armed;
  every outcome must serialize to the reference bytes.
- **serve leg** — a real in-process daemon over the same
  :class:`~repro.runner.parallel.PersistentPool`; every ``POST /run``
  must answer 200 with the reference bytes, retrying on injected
  connection resets (the retry is the client's job; the server has
  already cached the result).

Plans come from ``--plan FILE`` (a committed :class:`FaultPlan` JSON),
or default to :func:`full_plan` (every kind and mode) plus ``--sample``
seed-derived random plans. Exit 0 means every byte matched and every
registered chaos kind is covered by a registered injection point.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Sequence, TextIO

from repro import seams
from repro.chaos import inject as _chaos
from repro.chaos.plan import FaultPlan, full_plan, sample_plan
from repro.runner.parallel import PersistentPool, ResultCache, sweep
from repro.scenario import preset
from repro.scenario.runner import run_summary
from repro.scenario.spec import ScenarioSpec
from repro.serve.http import run_daemon
from repro.serve.service import (
    ScenarioService,
    report_bytes,
    serialize_outcome,
)

#: Presets exercised when no targets are given: the cheapest two.
DEFAULT_TARGETS = ("quickstart", "theorem2")

#: Injected connection resets surface client-side; this many fresh
#: connections per request bounds the retry loop well above any plan's
#: reset budget.
_SERVE_RETRIES = 5


def _format_fired(fired: dict[str, int]) -> str:
    if not fired:
        return "no faults fired"
    return ", ".join(f"{kind} x{count}" for kind, count in sorted(fired.items()))


def _sweep_leg(
    name: str,
    points: Sequence[ScenarioSpec],
    goldens: Sequence[bytes],
    plan: FaultPlan,
    *,
    workers: int,
) -> list[str]:
    """Two armed parallel sweeps over one temp cache; byte-check both."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as cache_dir:
        cache = ResultCache(cache_dir, namespace="scenario")
        with _chaos.armed(plan):
            for attempt in (1, 2):
                result = sweep(
                    list(points), run_summary, workers=workers, cache=cache
                )
                for spec, outcome, want in zip(
                    points, result.results, goldens
                ):
                    got = serialize_outcome(outcome)
                    if got != want:
                        failures.append(
                            f"{name} sweep attempt {attempt} under plan "
                            f"{plan.describe()}: point "
                            f"{spec.content_hash()[:12]} diverged from the "
                            "fault-free bytes"
                        )
    return failures


async def _request(port: int, body: bytes) -> tuple[int, bytes]:
    """One ``POST /run`` on a fresh connection; raises on a reset."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                "POST /run HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("ascii")
        status_line, *header_lines = head.split("\r\n")
        status = int(status_line.split(" ")[1])
        length = 0
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep and name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await reader.readexactly(length)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _serve_leg(
    name: str,
    points: Sequence[ScenarioSpec],
    goldens: Sequence[bytes],
    plan: FaultPlan,
    *,
    workers: int,
) -> list[str]:
    """Armed requests against a real daemon; every body must match."""
    failures: list[str] = []
    ready = asyncio.Event()
    stop = asyncio.Event()
    log = io.StringIO()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-serve-") as cache_dir:
        service = ScenarioService(
            pool=PersistentPool(workers),
            cache=ResultCache(cache_dir, namespace="scenario"),
        )
        daemon = asyncio.ensure_future(
            run_daemon(
                service,
                host="127.0.0.1",
                port=0,
                out=log,
                ready=ready,
                stop=stop,
            )
        )
        await ready.wait()
        port = int(log.getvalue().strip().rsplit(":", 1)[1])
        try:
            with _chaos.armed(plan):
                for spec, want in zip(points, goldens):
                    body = spec.to_json(indent=None).encode("utf-8")
                    answer: "tuple[int, bytes] | None" = None
                    for _ in range(_SERVE_RETRIES):
                        try:
                            answer = await _request(port, body)
                            break
                        except (
                            ConnectionError,
                            asyncio.IncompleteReadError,
                            OSError,
                        ):
                            continue  # injected reset; retry fresh
                    key = spec.content_hash()[:12]
                    if answer is None:
                        failures.append(
                            f"{name} serve under plan {plan.describe()}: "
                            f"request {key} never answered within "
                            f"{_SERVE_RETRIES} connections"
                        )
                    elif answer[0] != 200 or answer[1] != want:
                        failures.append(
                            f"{name} serve under plan {plan.describe()}: "
                            f"request {key} answered {answer[0]} with "
                            "non-reference bytes"
                        )
        finally:
            stop.set()
            await daemon
    return failures


def chaos_run_command(
    targets: Sequence[str] | None = None,
    *,
    plan_file: str | None = None,
    sample: int = 2,
    seed: int = 0,
    workers: int = 2,
    serve_leg: bool = True,
    points: int = 3,
    out: TextIO | None = None,
) -> int:
    """Entry point behind ``python -m repro chaos run``."""
    out = out if out is not None else sys.stdout
    names = tuple(targets) if targets else DEFAULT_TARGETS

    missing = set(seams.CHAOS_KINDS) - set(seams.chaos_kinds_covered())
    if missing:
        print(
            "chaos: fault kinds with no registered injection point: "
            + ", ".join(sorted(missing)),
            file=out,
        )
        return 1

    if plan_file is not None:
        plans = [FaultPlan.from_json(Path(plan_file).read_text("utf-8"))]
    else:
        plans = [full_plan()]
        plans.extend(sample_plan(seed + i) for i in range(sample))

    failures: list[str] = []
    for name in names:
        base = preset(name)
        specs = [base.replace(seed=base.seed + off) for off in range(points)]
        goldens = [report_bytes(spec) for spec in specs]
        for plan in plans:
            failures.extend(
                _sweep_leg(name, specs, goldens, plan, workers=workers)
            )
            print(
                f"chaos: {name} sweep under {plan.describe()}: "
                f"{_format_fired(_chaos.counters())}",
                file=out,
            )
        if serve_leg:
            # The serve leg replays the first plan only (the file plan,
            # or full_plan — which always includes the worker kill and
            # the connection reset); sampled plans keep the sweep side
            # varied without multiplying daemon spawns.
            failures.extend(
                asyncio.run(
                    _serve_leg(name, specs, goldens, plans[0], workers=workers)
                )
            )
            print(
                f"chaos: {name} serve under {plans[0].describe()}: "
                f"{_format_fired(_chaos.counters())}",
                file=out,
            )
    if failures:
        for failure in failures:
            print(f"chaos: FAIL {failure}", file=out)
        print(f"chaos: {len(failures)} divergence(s)", file=out)
        return 1
    legs = len(names) * (len(plans) + (1 if serve_leg else 0))
    print(
        f"chaos: OK — {legs} leg(s) over {len(names)} preset(s) and "
        f"{len(plans)} plan(s), every response byte-identical to the "
        "fault-free run",
        file=out,
    )
    return 0


def chaos_sample_command(
    *, seed: int = 0, count: int = 1, out: TextIO | None = None
) -> int:
    """Entry point behind ``python -m repro chaos sample``."""
    out = out if out is not None else sys.stdout
    for offset in range(count):
        print(sample_plan(seed + offset).to_json(), file=out)
    return 0


__all__ = ["chaos_run_command", "chaos_sample_command", "DEFAULT_TARGETS"]
