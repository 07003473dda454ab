"""``repro.serve`` — the long-lived scenario service.

Turns the sweep engine into a request-serving daemon: ScenarioSpec JSON
in over HTTP (or stdin lines), the exact ``run(spec)`` report bytes
back out, with in-flight dedup, an in-memory LRU over the on-disk
result cache, and one task per computed request on a persistent
worker pool. See
:mod:`repro.serve.service` for the architecture and the byte-identity
contract, :mod:`repro.serve.http` for the wire front end, and
``python -m repro serve --help`` for the CLI.
"""

from repro.serve.service import (
    InlinePool,
    LruCache,
    ScenarioService,
    ServeResult,
    ServiceStats,
    report_bytes,
    serialize_outcome,
)

__all__ = [
    "InlinePool",
    "LruCache",
    "ScenarioService",
    "ServeResult",
    "ServiceStats",
    "report_bytes",
    "serialize_outcome",
]
