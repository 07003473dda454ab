"""The benchmark's traced run still finds every program name it wraps.

``perfbench/tracing.py`` wraps program functions and methods by name
(``install``), so renaming or deleting one of them breaks the traced
benchmark run without failing any other test. This installs the
wrappers, runs one scenario and one fuzz case under them, checks that
each layer recorded its spans, and checks that ``undo`` puts the
originals back.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import SpanRecorder, install  # noqa: E402
from repro.fuzz.runner import FuzzCase, run_case  # noqa: E402
from repro.fuzz.sampler import SpecSampler  # noqa: E402
from repro.radio.medium import Medium  # noqa: E402
from repro.scenario import preset  # noqa: E402
from repro.scenario.runner import run_summary  # noqa: E402

EXPECTED_SPANS = (
    "scenario.run",
    "radio.driver",
    "radio.resolve_slot",
    # adversary.self_s counts only these two, so the jammer's horizon
    # work must stay inside them (observe is called with a repeat).
    "adversary.on_slot",
    "adversary.observe",
    "fuzz.leg.fast",
    "fuzz.leg.reference",
    "fuzz.oracles",
)


def test_traced_run_records_every_layer_and_undoes_its_patches():
    original = vars(Medium).get("round_memo_get")
    rec = SpanRecorder()
    patches = install(rec)
    try:
        run_summary(preset("theorem2"))
        result = run_case(FuzzCase(0, SpecSampler(2010).case_spec(0)))
    finally:
        patches.undo()
    assert result.ok, result.failures
    totals = rec.totals()
    missing = [name for name in EXPECTED_SPANS if name not in totals]
    assert not missing, f"no spans recorded for {missing}"
    assert Medium.__dict__["round_memo_get"] is original
