"""Byte-identity suite for the scenario service.

Every serving path — fresh compute, the LRU, the disk cache and a real
spawn worker — must serve byte-for-byte the ground truth
:func:`repro.serve.service.report_bytes`, the canonical serialization
of a direct ``run_summary(spec)``.

Every bundled preset is pinned on three of them: cold compute, a warm
LRU hit, and a fresh service reading the first one's disk cache.
``megatorus`` (10^6 nodes) joins only when NumPy is available — its
non-vectorized run would take minutes.
"""

import asyncio

import pytest

from repro.protocols import vectorized
from repro.runner.parallel import PersistentPool, ResultCache
from repro.scenario import preset, preset_names
from repro.serve import service as serve_service
from repro.serve.service import (
    InlinePool,
    ScenarioService,
    report_bytes,
)

IDENTITY_PRESETS = [
    pytest.param(
        name,
        marks=(
            pytest.mark.skipif(
                name == "megatorus" and not vectorized.available(),
                reason="megatorus needs the NumPy whole-grid kernel",
            )
        ),
    )
    for name in preset_names()
]


def serve_one(service, spec):
    async def scenario():
        await service.start()
        result = await service.submit_spec(spec)
        await service.drain()
        return result

    return asyncio.run(scenario())


def serve_many(service, specs):
    async def scenario():
        await service.start()
        results = [await service.submit_spec(spec) for spec in specs]
        await service.drain()
        return results

    return asyncio.run(scenario())


@pytest.mark.parametrize("name", IDENTITY_PRESETS)
def test_every_path_serves_reference_bytes(name, tmp_path):
    """Cold compute, warm LRU, and disk restart all serve report_bytes."""
    spec = preset(name)
    expected = report_bytes(spec)

    service = ScenarioService(
        pool=InlinePool(), cache=ResultCache(tmp_path, namespace="scenario")
    )
    cold, warm = serve_many(service, [spec, spec])
    assert cold.status == 200 and cold.source == "computed"
    assert cold.body == expected
    assert warm.source == "lru"
    assert warm.body == expected

    restarted = ScenarioService(
        pool=InlinePool(), cache=ResultCache(tmp_path, namespace="scenario")
    )
    disk = serve_one(restarted, spec)
    assert disk.source == "disk"
    assert disk.body == expected


def test_spawn_pool_serves_reference_bytes(tmp_path):
    """Cross-process identity: a real spawn worker computes the bytes."""
    spec = preset("quickstart")
    expected = report_bytes(spec)
    with PersistentPool(1) as pool:
        service = ScenarioService(
            pool=pool, cache=ResultCache(tmp_path, namespace="scenario")
        )
        result = serve_one(service, spec)
    assert result.status == 200
    assert result.body == expected
    # The worker's result round-tripped into the shared disk cache too.
    hit, outcome = ResultCache(tmp_path, namespace="scenario").get(spec)
    assert hit
    assert serve_service.serialize_outcome(outcome) == expected
