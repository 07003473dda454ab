"""``repro.check`` — project-invariant static analysis.

An AST-based rule framework (``python -m repro check``) that turns the
ROADMAP's standing rules — bit-for-bit determinism, byte-identical
fast/reference seams, registry + capability-flag completeness, strictly
optional NumPy — into machine-checked gates. Each rule has a stable ID
(``RPR###``), can be suppressed inline with ``# repro: ignore[RPR###]``,
and reports findings that a baseline file may exclude (the committed
baseline must stay empty in CI; it exists only to stage large cleanups).

Rule catalog (see the per-module docstrings for rationale):

======== ====================================================================
RPR001   unseeded ``random.*`` call in engine code
RPR002   wall-clock read (``time.time`` / ``datetime.now``) in engine code
RPR003   environment read (``os.environ`` / ``os.getenv``) in engine code
RPR004   iteration over an unordered set in engine code without ``sorted``
RPR005   ``id()``-based ordering
RPR101   module-level ``DEFAULT_* = True/False`` implementation switch
RPR102   seam whose differential test is missing or silent
RPR103   seam whose tier is not ``Tier.FAST`` or ``Tier.VECTOR``
RPR201   concrete component class whose module never registers it
RPR202   adversary class that declares no fast-path capability flag
RPR203   registered component missing from the fuzz sampler matrix
RPR301   module-level ``import numpy`` without an ImportError guard
RPR401   mutable default argument
RPR501   ``except BrokenExecutor`` outside the pool-supervision module
======== ====================================================================
"""

from __future__ import annotations

from repro.check import determinism, hygiene, registries, robustness, seams
from repro.check.framework import (
    Finding,
    ProjectIndex,
    Rule,
    load_baseline,
    run_rules,
)

#: Every rule, in report order. New rule modules append here.
ALL_RULES: tuple[Rule, ...] = (
    *determinism.RULES,
    *seams.RULES,
    *registries.RULES,
    *hygiene.RULES,
    *robustness.RULES,
)


def run_check(
    root,
    *,
    rules: tuple[Rule, ...] = ALL_RULES,
    baseline_path=None,
) -> list[Finding]:
    """Scan the tree under ``root`` and return unsuppressed findings.

    ``baseline_path`` (optional) names a JSON baseline file whose
    fingerprints are excluded from the result.
    """
    project = ProjectIndex.load(root)
    baseline = load_baseline(baseline_path) if baseline_path else frozenset()
    return run_rules(project, rules, baseline=baseline)


__all__ = [
    "ALL_RULES",
    "Finding",
    "ProjectIndex",
    "Rule",
    "run_check",
]
