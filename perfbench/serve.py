"""Workload ``serve``: loopback HTTP traffic against an in-process daemon.

The daemon is ``repro.serve.http.run_daemon`` over a ``ScenarioService``
with a warmed one-worker ``PersistentPool`` and a ``ResultCache`` in
which part of the traffic's specs are already stored. Two keep-alive
client connections send in a closed loop: each *wave* sends one request
on each connection and waits for both responses. The seed draws the
stream; every request's expected ``X-Source`` follows from it:

- ``computed`` — a spec never seen before (18% of requests);
- ``lru`` — a repeat of a recently served spec (65%);
- ``disk`` — the first request for a pre-stored spec (10%);
- ``rejected`` — a malformed body, answered 400 (5%);
- ``dedup`` — in 4% of waves both connections send the same new spec,
  so one request shares the other's computation (2%).

A spec is one of the serve presets with a random placement of its own
(:func:`spec_payload`), so specs differ in outcome and a computed
request runs rounds the pool worker has not resolved before.

A pass is :data:`BLOCKS` blocks of 50 waves, served by a fresh daemon
over a fresh pool and cache, so every pass asks for the same compute;
passes repeat until ``--seconds`` have passed, as ``paper``'s and
``fuzz``'s do.

One operation is one request, timed from writing it to reading the last
byte of the response. This is the only workload that runs ``repro.serve``
and the pool round trip; its p50 is set by the LRU front door and its
p90 by compute.

Check: every response's status and body digest equal the values pinned
for its spec in ``pinned.json``, and every wave's sources are the ones
the seed implies.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator

from perfbench import program
from perfbench.calibrate import Calibrator
from perfbench.harness import Measured, digest
from perfbench.layers import SERVE_SOURCES

#: The traffic comes in blocks of :data:`BLOCK_WAVES` waves with exactly
#: this mix, shuffled within the block by the seed: 2 dedup waves, and
#: 96 single requests of which 16 new, 10 pre-stored, 5 malformed and
#: 65 repeats. Block ``b`` uses the same new and pre-stored specs for
#: every seed (see :func:`blocks`), so every seed asks the pool for the
#: same compute in the same order. With 20 slow requests in 100, a
#: third of each preset, p90 falls in the middle of the ``theorem2``
#: runs' times, where they lie dense; with fewer it falls in the gap
#: between the ``reactive`` and the ``theorem2`` runs, where a little
#: jitter moves it by 10%.
BLOCK_WAVES = 50
BLOCK_DEDUP_WAVES = 2
BLOCK_REQUESTS = {"computed": 16, "disk": 10, "rejected": 5, "lru": 65}
NEW_PER_BLOCK = BLOCK_REQUESTS["computed"] + BLOCK_DEDUP_WAVES
#: Which of a block's new specs (in index order) go to its dedup waves:
#: a ``theorem2`` and a ``reactive`` one, so the slow requests are a
#: third of each preset. The first is the block's first slow wave.
DEDUP_OFFSETS = (0, 10)
#: Blocks per pass (400 requests, about 10 s on the reference host).
BLOCKS = 4
NEW_SPECS = BLOCKS * NEW_PER_BLOCK
PREFILL_SPECS = BLOCKS * BLOCK_REQUESTS["disk"]
NEW_SEED0 = 100_000
PREFILL_SEED0 = 200_000
#: Bad nodes of a spec's random placement: ``randrange`` bounds per preset.
BAD_COUNT = {"quickstart": (20, 60), "theorem2": (20, 60), "reactive": (4, 12)}

#: Repeats draw from this many most recently served specs: half the
#: service's LRU, so no repeat can miss whatever order a wave's two
#: requests land in.
RECENT = 128
LRU_SIZE = 256

#: Fixed malformed bodies, each answered 400 with a deterministic body.
MALFORMED = (
    b'{"grid": {"width": 30',
    b'[1, 2, 3]',
    b'{"grid": {"width": 30, "height": 30, "r": 2, "torus": true}, '
    b'"t": 2, "mf": 1, "protocol": "thresold"}',
    b'{"behaviour": "jam"}',
)


@dataclass(frozen=True)
class Request:
    ref: tuple[str, int]  # ("n", i) new, ("p", j) pre-stored, ("m", k) malformed
    expect: str  # the X-Source the seed implies ("rejected" for a 400)


Wave = tuple[Request, Request]


def blocks(seed: int) -> Iterator[list[Wave]]:
    """The seeded request stream of one pass, one block of waves at a time.

    The pool computes the same specs in the same order under every seed:
    each block's new specs in index order, those at
    :data:`DEDUP_OFFSETS` in dedup waves, each other one in a wave of its
    own with one cheap request. The seed places these waves among the cheap ones, and
    draws the cheap requests. The stream opens with a dedup wave, so
    there is a served spec for the first repeat to draw.
    """
    rng = random.Random(seed)
    recent: OrderedDict[tuple[str, int], None] = OrderedDict()

    for number in range(BLOCKS):
        first_new = number * NEW_PER_BLOCK
        stored = list(range(number * BLOCK_REQUESTS["disk"],
                            (number + 1) * BLOCK_REQUESTS["disk"]))
        rng.shuffle(stored)

        def request(kind: str) -> Request:
            if kind == "lru":
                return Request(rng.choice(list(recent)[-RECENT:]), "lru")
            if kind == "disk":
                return Request(("p", stored.pop()), "disk")
            return Request(("m", rng.randrange(len(MALFORMED))), "rejected")

        cheap = [kind for kind, n in BLOCK_REQUESTS.items() if kind != "computed"
                 for _ in range(n)]
        rng.shuffle(cheap)
        slow = []
        for offset in range(NEW_PER_BLOCK):
            ref = ("n", first_new + offset)
            if offset in DEDUP_OFFSETS:
                slow.append((Request(ref, "computed"), Request(ref, "dedup")))
            else:
                slow.append((Request(ref, "computed"), cheap.pop()))
        pairs = [tuple(cheap[i:i + 2]) for i in range(0, len(cheap), 2)]
        if number == 0:
            at = {0, *rng.sample(range(1, BLOCK_WAVES), len(slow) - 1)}
        else:
            at = set(rng.sample(range(BLOCK_WAVES), len(slow)))
        block = []
        for position in range(BLOCK_WAVES):
            planned = slow.pop(0) if position in at else pairs.pop()
            wave = tuple(
                sent if isinstance(sent, Request) else request(sent)
                for sent in planned
            )
            block.append(wave)
            for sent in wave:
                if sent.expect != "rejected":
                    recent[sent.ref] = None
                    recent.move_to_end(sent.ref)
            while len(recent) > LRU_SIZE:
                recent.popitem(last=False)
        yield block


def _base_specs() -> dict[str, dict[str, Any]]:
    from repro.scenario import preset

    return {name: preset(name).to_dict() for name in program.SERVE_PRESETS}


def spec_payload(base: dict[str, dict[str, Any]], ref: tuple[str, int]) -> dict:
    """Spec ``ref``: its preset with a seeded random placement of its own."""
    kind, index = ref
    seed = (NEW_SEED0 if kind == "n" else PREFILL_SEED0) + index
    name = program.SERVE_PRESETS[index % len(program.SERVE_PRESETS)]
    spec = base[name]
    count = random.Random(seed).randrange(*BAD_COUNT[name])
    placement = {"kind": "random", "t": spec["t"], "count": count, "seed": seed}
    return {**spec, "placement": placement, "seed": seed}


def request_body(base: dict[str, dict[str, Any]], ref: tuple[str, int]) -> bytes:
    if ref[0] == "m":
        return MALFORMED[ref[1]]
    return json.dumps(spec_payload(base, ref), sort_keys=True).encode("utf-8")


async def _exchange(reader: Any, writer: Any, body: bytes) -> tuple:
    started = time.perf_counter()
    writer.write(
        b"POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n"
        % len(body) + body
    )
    head = (await reader.readuntil(b"\r\n\r\n")).decode("ascii")
    status_line, *lines = head.split("\r\n")
    headers = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length", "0")))
    status = int(status_line.split(" ")[1])
    return started, time.perf_counter(), status, headers.get("x-source"), payload


class Serve:
    name = "serve"

    def __init__(self, seed: int, pinned: dict) -> None:
        self.seed = seed
        self.base = _base_specs()
        serve = pinned["serve"]
        self.new = serve["new"]
        self.stored = serve["prefill"]
        self.malformed = serve["malformed"]

    def _expected(self, ref: tuple[str, int]) -> tuple[int, str]:
        kind, index = ref
        if kind == "n":
            return 200, self.new[index]
        if kind == "p":
            return 200, digest(self.stored[index])
        status, body_digest = self.malformed[index]
        return status, body_digest

    def _prefill(self, directory: Any) -> None:
        from repro.runner.parallel import ResultCache, decode_result
        from repro.scenario.spec import ScenarioSpec

        shutil.rmtree(directory, ignore_errors=True)
        cache = ResultCache(str(directory), namespace="scenario")
        for index, body in enumerate(self.stored):
            spec = ScenarioSpec.from_dict(spec_payload(self.base, ("p", index)))
            cache.put(spec, decode_result(json.loads(body)))

    def prepare(self) -> None:
        """Pre-store part of the specs and warm a fresh pool (not timed)."""
        self._cache_dir = program.WORK / "serve-cache"
        self._prefill(self._cache_dir)
        # The pool worker inherits this, so compute and calibration share
        # a CPU, as in coldstart.py.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._pool = program.spawn_pool()

    def run_pass(self, cal: Calibrator, out: Measured) -> tuple[str, float]:
        """Serve the stream once; return the digest of the ordered
        responses and the peak RSS of this process and the pool worker.
        The daemon's drain shuts the pool down."""
        import asyncio

        return asyncio.run(self._serve(self._pool, self._cache_dir, cal, out))

    async def _serve(self, pool: Any, cache_dir: Any, cal: Calibrator,
                     out: Measured) -> tuple[str, float]:
        import asyncio

        daemon = program.Daemon(pool, cache_dir)
        if daemon.service.lru.limit != LRU_SIZE:
            raise RuntimeError(
                f"the traffic assumes an LRU of {LRU_SIZE}, the service has "
                f"{daemon.service.lru.limit}"
            )
        await daemon.start()
        connections = [
            await asyncio.open_connection("127.0.0.1", daemon.port) for _ in range(2)
        ]
        stream = hashlib.sha256()
        cal.sample()
        try:
            for block in blocks(self.seed):
                for wave in block:
                    bodies = [request_body(self.base, request.ref) for request in wave]
                    started = time.perf_counter()
                    answers = await asyncio.gather(*(
                        _exchange(reader, writer, body)
                        for (reader, writer), body in zip(connections, bodies)
                    ))
                    out.work.append((started, time.perf_counter()))
                    self._check(wave, answers, out, stream)
                    cal.maybe_sample()
            peak = program.peak_rss_mb(program.pool_pids(pool))
        finally:
            for _reader, writer in connections:
                writer.close()
                await writer.wait_closed()
            await daemon.stop()
        for source in SERVE_SOURCES:
            spans = out.groups.get(source, [])
            out.layer_extra[f"serve.requests.{source}.count"] = len(spans)
            out.layer_extra[f"serve.latency.{source}.p50_ms"] = (
                1e3 * statistics.median(cal.normalize(a, b) for a, b in spans)
                if spans else 0.0
            )
        return stream.hexdigest(), peak

    def _check(self, wave: Wave, answers: list[tuple],
               out: Measured, stream: Any) -> None:
        sources = []
        for request, (started, ended, status, source, body) in zip(wave, answers):
            out.ops.append((started, ended))
            out.attempted += 1
            observed = "rejected" if status == 400 else source
            sources.append(observed)
            if observed in SERVE_SOURCES:
                out.groups.setdefault(observed, []).append((started, ended))
            stream.update(b"%d:%s\n" % (status, hashlib.sha256(body).digest()))
            want_status, want_digest = self._expected(request.ref)
            got_digest = digest(body.decode("utf-8", "replace"))
            if (status, got_digest) != (want_status, want_digest):
                out.fail(1, f"{request.ref}: got {status} {got_digest}, "
                            f"pinned {want_status} {want_digest}")
        expected = sorted(request.expect for request in wave)
        if sorted(map(str, sources)) != expected:
            out.fail(len(wave), f"wave sources {sources} != seeded {expected}")

