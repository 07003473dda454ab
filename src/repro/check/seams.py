"""Seam rules (RPR101–RPR103).

Every fast path in this repository keeps a byte-identical reference twin,
listed as a :class:`repro.seams.Seam` in :data:`repro.seams.SEAMS`, and a
run picks its side through the per-call :class:`repro.seams.Tier`
argument. These rules close the loop statically:

- RPR101: no module-level ``DEFAULT_* = True/False`` switch. The tier is
  a value passed per call; a process-global boolean that picks an
  implementation cannot come back.
- RPR102: every seam's declared differential test must exist under
  ``tests/`` and actually mention the seam — either its tier
  (``Tier.FAST`` / ``Tier.VECTOR``) or both implementation names. A seam
  whose test went silent is indistinguishable from an untested seam.
- RPR103: a seam's tier must be ``Tier.FAST`` or ``Tier.VECTOR``; a seam
  at ``Tier.REFERENCE`` (or none) would never meet its twin in a
  differential run.

Seams are parsed statically (``Seam(...)`` keyword literals), so the
checker needs no imports and runs on broken trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.check.framework import (
    Finding,
    ProjectIndex,
    Rule,
    SourceFile,
    dotted_name,
)
from repro.seams import Tier

#: The tiers a seam's fast side may run at.
_SEAM_TIERS = (Tier.FAST.name, Tier.VECTOR.name)


@dataclass(frozen=True)
class StaticSeam:
    """A ``Seam(...)`` construction as read off the AST."""

    file: SourceFile
    node: ast.Call
    fields: dict[str, str | None]

    def get(self, key: str) -> str | None:
        return self.fields.get(key)

    @property
    def tier(self) -> str:
        """The tier's member name (``"FAST"``), or ``""`` if not literal."""
        return (self.get("tier") or "").rsplit(".", 1)[-1]


def _module_switches(f: SourceFile) -> list[tuple[str, ast.stmt]]:
    """Module-level ``DEFAULT_* = True/False`` assignments."""
    switches: list[tuple[str, ast.stmt]] = []
    for stmt in f.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            ]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets = [stmt.target.id]
            value = stmt.value
        else:
            continue
        if not (
            isinstance(value, ast.Constant) and isinstance(value.value, bool)
        ):
            continue
        for name in targets:
            if name.startswith("DEFAULT_"):
                switches.append((name, stmt))
    return switches


def collect_static_seams(project: ProjectIndex) -> list[StaticSeam]:
    """Every ``Seam(...)`` construction in the scanned tree.

    String keywords are kept as literals and attribute keywords
    (``tier=Tier.FAST``) as their dotted name.
    """
    seams: list[StaticSeam] = []
    for f in project.src_files():
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            if name.split(".")[-1] != "Seam":
                continue
            fields: dict[str, str | None] = {}
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                if isinstance(kw.value, ast.Constant):
                    value = kw.value.value
                    fields[kw.arg] = value if isinstance(value, str) else (
                        None if value is None else str(value)
                    )
                else:
                    fields[kw.arg] = dotted_name(kw.value)
            seams.append(StaticSeam(file=f, node=node, fields=fields))
    return seams


class ModuleSwitchRule(Rule):
    rule_id = "RPR101"
    title = "module-level boolean implementation switch"
    rationale = (
        "A DEFAULT_* boolean picks an implementation for the whole "
        "process; the execution tier is a per-call value "
        "(run(spec, tier=...)), so such a switch cannot come back."
    )

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        for f in project.src_files():
            for switch, stmt in _module_switches(f):
                yield self.finding(
                    f,
                    stmt,
                    f"module-level boolean switch {switch}; pick the "
                    "implementation per call with a repro.seams.Tier "
                    "(run(spec, tier=...)) and list the pair in "
                    "repro.seams.SEAMS",
                )


class SeamDifferentialTestRule(Rule):
    rule_id = "RPR102"
    title = "seam without a live differential test"
    rationale = (
        "A seam's safety net is its differential test; the seam must "
        "point at a test file that exists and names the seam."
    )

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        tests = project.test_sources()
        for seam in collect_static_seams(project):
            name = seam.get("name") or "<unnamed>"
            for required in ("fast", "reference"):
                if not seam.get(required):
                    yield self.finding(
                        seam.file,
                        seam.node,
                        f"seam {name!r} omits the {required!r} field (or "
                        "passes it non-literally); the checker needs "
                        "literal strings to verify the seam",
                    )
            test_path = seam.get("differential_test")
            if not test_path:
                yield self.finding(
                    seam.file,
                    seam.node,
                    f"seam {name!r} declares no differential_test; every "
                    "fast/reference pair needs a byte-identity suite",
                )
                continue
            source = tests.get(test_path)
            if source is None:
                yield self.finding(
                    seam.file,
                    seam.node,
                    f"seam {name!r} points at differential test "
                    f"{test_path!r}, which does not exist",
                )
                continue
            tier_token = f"Tier.{seam.tier}" if seam.tier else ""
            fast_token = (seam.get("fast") or "").rsplit(".", 1)[-1]
            ref_token = (seam.get("reference") or "").rsplit(".", 1)[-1]
            names_tier = bool(tier_token) and tier_token in source
            names_pair = (
                bool(fast_token)
                and bool(ref_token)
                and fast_token in source
                and ref_token in source
            )
            if not (names_tier or names_pair):
                yield self.finding(
                    seam.file,
                    seam.node,
                    f"differential test {test_path!r} for seam {name!r} "
                    f"mentions neither its tier {tier_token!r} nor both "
                    f"implementations ({fast_token!r}/{ref_token!r}); the "
                    "test no longer exercises this seam",
                )


class SeamTierRule(Rule):
    rule_id = "RPR103"
    title = "seam whose tier is not FAST or VECTOR"
    rationale = (
        "Tier.REFERENCE runs every reference twin, so a seam's fast side "
        "must sit at Tier.FAST or Tier.VECTOR for the differential runs "
        "(and repro.fuzz) to compare the two."
    )

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        for seam in collect_static_seams(project):
            if seam.tier not in _SEAM_TIERS:
                name = seam.get("name") or "<unnamed>"
                yield self.finding(
                    seam.file,
                    seam.node,
                    f"seam {name!r} declares tier={seam.get('tier')!r}; it "
                    "must be Tier.FAST or Tier.VECTOR so a Tier.REFERENCE "
                    "run compares the fast side with its twin",
                )


RULES = (
    ModuleSwitchRule(),
    SeamDifferentialTestRule(),
    SeamTierRule(),
)
