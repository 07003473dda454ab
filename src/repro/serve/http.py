"""Minimal HTTP/1.1 front end for :class:`~repro.serve.service.ScenarioService`.

Stdlib-only by standing rule: ``asyncio.start_server`` plus a
hand-rolled request parser covering exactly what the service needs —
``POST /run`` with a ``Content-Length`` JSON body, a few ``GET``
introspection routes, and keep-alive. No chunked encoding, no TLS, no
Date header (responses must be deterministic for a given cache state).

Routes:

- ``POST /run`` — a :class:`~repro.scenario.ScenarioSpec` JSON object;
  answers the exact bytes a direct ``run(spec)`` report serializes to
  (200), a structured ``{"error", "field", "suggestions"}`` body (400),
  ``503`` + ``Retry-After`` when the computations in flight are at the
  bound or the service is draining, or ``500`` for a simulation failure.
- ``GET /healthz`` — liveness and pool health: ``status`` is ``"ok"`` or
  ``"degraded"``, plus pool liveness, restart count, and the degraded /
  timeout counters (see
  :meth:`~repro.serve.service.ScenarioService.health_payload`).
- ``GET /stats`` — the service counters (requests, cache hits, dedup
  and hit rates, computations in flight, LRU occupancy).
- ``GET /presets`` — bundled preset names with their content hashes,
  so a client can warm or probe the cache without composing specs.

The daemon (:func:`run_daemon`) installs SIGTERM/SIGINT handlers that
trigger a graceful drain: stop accepting connections, finish every
computation in flight, answer every in-flight request, then exit — so a
supervisor's ``SIGTERM`` never loses accepted work.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
from typing import Any, TextIO

from repro.chaos import inject as _chaos
from repro.serve.service import ScenarioService, ServeResult, canonical_bytes

#: Upper bound on request head + body we will buffer (1 MiB covers any
#: plausible spec many times over; bigger requests get a 413).
MAX_REQUEST_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def render_response(
    status: int,
    body: bytes,
    *,
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Serialize one deterministic HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def _result_headers(result: ServeResult) -> tuple[tuple[str, str], ...]:
    headers: list[tuple[str, str]] = []
    if result.scenario is not None:
        headers.append(("X-Scenario", result.scenario))
    if result.source is not None:
        headers.append(("X-Source", result.source))
    if result.retry_after is not None:
        headers.append(("Retry-After", str(result.retry_after)))
    return tuple(headers)


class _BadRequest(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _BadRequest(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest(413, "request head too large") from None
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise _BadRequest(400, "request head is not ASCII") from None
    request_line, *header_lines = text.split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise _BadRequest(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _BadRequest(400, "bad Content-Length") from None
        if length < 0 or length > MAX_REQUEST_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(length)
    return method, target, headers, body


def _presets_payload() -> dict[str, Any]:
    from repro.scenario import preset, preset_names

    return {
        "presets": {
            name: preset(name).content_hash() for name in preset_names()
        }
    }


async def handle_request(
    service: ScenarioService, method: str, target: str, body: bytes
) -> ServeResult:
    """Route one parsed request to the service (transport-independent)."""
    target = target.partition("?")[0]
    if target == "/run":
        if method != "POST":
            return ServeResult(
                405, canonical_bytes({"error": "use POST /run"})
            )
        return await service.submit_payload(body)
    if method != "GET":
        return ServeResult(
            405, canonical_bytes({"error": f"use GET {target}"})
        )
    if target == "/healthz":
        return ServeResult(200, canonical_bytes(service.health_payload()))
    if target == "/stats":
        return ServeResult(200, canonical_bytes(service.stats_payload()))
    if target == "/presets":
        return ServeResult(200, canonical_bytes(_presets_payload()))
    return ServeResult(
        404,
        canonical_bytes(
            {"error": f"no route {target!r}; routes: /run /healthz /stats /presets"}
        ),
    )


async def handle_connection(
    service: ScenarioService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one keep-alive connection until EOF or ``Connection: close``."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(
                    render_response(
                        exc.status,
                        canonical_bytes({"error": str(exc)}),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            method, target, headers, body = request
            route = target.partition("?")[0]
            result = await handle_request(service, method, target, body)
            if route == "/run" and _chaos.connection_reset():
                # Chaos injection: the response was computed (and cached)
                # but the client never sees it — the worst-timed reset.
                # Aborting skips the FIN handshake, so the client gets
                # ECONNRESET rather than a clean EOF.
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                break
            keep_alive = headers.get("connection", "").lower() != "close"
            writer.write(
                render_response(
                    result.status,
                    result.body,
                    extra_headers=_result_headers(result),
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-request; shielded compute continues
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def run_daemon(
    service: ScenarioService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: str | None = None,
    out: TextIO | None = None,
    ready: "asyncio.Event | None" = None,
    stop: "asyncio.Event | None" = None,
) -> None:
    """Serve until SIGTERM/SIGINT (or ``stop``), then drain gracefully.

    ``port=0`` binds an ephemeral port; the bound port is printed and,
    when ``port_file`` is given, written there so harnesses (the CI smoke
    job, ``perfbench``'s serve workload) can discover it without racing on
    output parsing. ``ready``/``stop`` are seams for in-process embedding.
    """
    out = out if out is not None else sys.stdout
    stop = stop if stop is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    connections: set["asyncio.Task[None]"] = set()

    async def _connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        connections.add(task)
        task.add_done_callback(connections.discard)
        await handle_connection(service, reader, writer)

    await service.start()
    server = await asyncio.start_server(
        _connection, host=host, port=port, limit=MAX_REQUEST_BYTES
    )
    bound_port = server.sockets[0].getsockname()[1]
    if port_file is not None:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(str(bound_port))
    print(f"repro serve: listening on http://{host}:{bound_port}", file=out)
    out.flush()

    installed: list[int] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # non-Unix loops
            pass
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        server.close()
        await server.wait_closed()
        # Finish compute in flight and resolve every waiting request...
        await service.drain()
        # ...then give connections a moment to flush their responses.
        if connections:
            done, pending = await asyncio.wait(list(connections), timeout=2.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        stats = service.stats
        print(
            "repro serve: drained "
            f"({stats.requests} requests: {stats.computed} computed, "
            f"{stats.lru_hits + stats.disk_hits} cache hits, "
            f"{stats.deduped} deduped, {stats.rejected} rejected)",
            file=out,
        )
        out.flush()


from repro import seams as _seams  # noqa: E402

_seams.register_chaos(
    _seams.ChaosPoint(
        name="serve-connection",
        module="repro.serve.http",
        hook="repro.chaos.inject.connection_reset",
        kinds=("connection-reset",),
        description="abort the client connection after computing a /run "
        "response, before writing it (client sees ECONNRESET; the result "
        "is already cached, so a retry is a cache hit)",
    )
)
