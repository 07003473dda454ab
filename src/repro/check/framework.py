"""Rule framework for :mod:`repro.check`.

The moving parts, smallest first:

- :class:`Finding` — one diagnostic, with a location and a *fingerprint*
  (rule + path + message, deliberately line-free so baselines survive
  unrelated edits);
- :class:`SourceFile` — a parsed module plus its suppression comments
  (``# repro: ignore[RPR001]`` on the flagged line or the line above);
- :class:`ProjectIndex` — every scanned source file, loaded once and
  shared by all rules, so project-level rules (seams, registries) can
  cross-reference modules without re-reading the tree;
- :class:`Rule` / :class:`FileRule` — project-wide vs per-file checks;
- :func:`run_rules` — run, filter suppressed + baselined, sort.

Scanned roots are ``src/`` and ``examples/``; the
``tests/`` tree is indexed read-only (rules search it for differential
tests but never lint it — tests get to be weird on purpose).
"""

from __future__ import annotations

import ast
import json
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigurationError

#: Directories under ``src/repro`` holding deterministic engine code —
#: the scope of the RPR0xx determinism rules. Everything a scenario run
#: executes between ``run(spec)`` and its report lives here; analysis /
#: experiment / CLI code may read clocks, engines may not.
ENGINE_DIRS = ("sim", "protocols", "radio", "adversary")

#: ``# repro: ignore[RPR001]`` / ``# repro: ignore[RPR001, RPR203]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9_,\s]+)\]")

_RULE_ID_RE = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong."""

    rule_id: str
    path: str  # repo-root-relative posix path
    line: int
    col: int
    message: str

    def fingerprint(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift, messages shouldn't."""
        return (self.rule_id, self.path, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class SourceFile:
    """A parsed module plus the bookkeeping rules need around it."""

    path: Path  # absolute
    rel: str  # posix path relative to the project root
    source: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]  # line -> suppressed rule ids

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        suppressions: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                ids = frozenset(
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                )
                suppressions[lineno] = ids
        return cls(
            path=path,
            rel=path.relative_to(root).as_posix(),
            source=source,
            tree=tree,
            suppressions=suppressions,
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Suppression comments cover their own line and the next one."""
        for at in (line, line - 1):
            if rule_id in self.suppressions.get(at, frozenset()):
                return True
        return False

    @property
    def in_engine(self) -> bool:
        """Whether this file is deterministic-engine code (RPR0xx scope)."""
        parts = Path(self.rel).parts
        return (
            len(parts) >= 3
            and parts[0] == "src"
            and parts[1] == "repro"
            and parts[2] in ENGINE_DIRS
        )


@dataclass
class ProjectIndex:
    """Every scanned source file plus read-only access to ``tests/``."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path | str) -> "ProjectIndex":
        root = Path(root).resolve()
        if not (root / "src" / "repro").is_dir():
            raise ConfigurationError(
                f"{root} does not look like the repro project root "
                "(no src/repro directory)"
            )
        files: list[SourceFile] = []
        for scan_root in ("src", "examples"):
            base = root / scan_root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                try:
                    files.append(SourceFile.parse(path, root))
                except SyntaxError as exc:
                    raise ConfigurationError(
                        f"cannot parse {path}: {exc}"
                    ) from exc
        return cls(root=root, files=files)

    def file(self, rel: str) -> SourceFile | None:
        for f in self.files:
            if f.rel == rel:
                return f
        return None

    def src_files(self) -> Iterator[SourceFile]:
        for f in self.files:
            if f.rel.startswith("src/"):
                yield f

    def test_sources(self) -> dict[str, str]:
        """``tests/**.py`` sources keyed by root-relative posix path."""
        out: dict[str, str] = {}
        base = self.root / "tests"
        if base.is_dir():
            for path in sorted(base.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                out[path.relative_to(self.root).as_posix()] = path.read_text(
                    encoding="utf-8"
                )
        return out


class Rule(ABC):
    """One project invariant with a stable ID."""

    rule_id: str
    title: str
    rationale: str

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        rule_id = getattr(cls, "rule_id", None)
        if rule_id is not None and not _RULE_ID_RE.match(rule_id):
            raise ConfigurationError(
                f"rule id {rule_id!r} does not match RPR###"
            )

    @abstractmethod
    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        """Yield findings over the whole project."""

    def finding(
        self, f: SourceFile, node: ast.AST | None, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule_id=self.rule_id, path=f.rel, line=line, col=col, message=message
        )


class FileRule(Rule):
    """A rule that inspects one file at a time."""

    def applies_to(self, f: SourceFile) -> bool:
        return True

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        for f in project.files:
            if self.applies_to(f):
                yield from self.check_file(f, project)

    @abstractmethod
    def check_file(
        self, f: SourceFile, project: ProjectIndex
    ) -> Iterator[Finding]:
        """Yield findings for one file."""


def run_rules(
    project: ProjectIndex,
    rules: Iterable[Rule],
    *,
    baseline: frozenset[tuple[str, str, str]] = frozenset(),
) -> list[Finding]:
    """All unsuppressed, unbaselined findings, in (path, line, rule) order."""
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(project):
            f = project.file(finding.path)
            if f is not None and f.suppressed(finding.rule_id, finding.line):
                continue
            if finding.fingerprint() in baseline:
                continue
            findings.append(finding)
    findings.sort(key=lambda x: (x.path, x.line, x.col, x.rule_id))
    return findings


# -- baseline ------------------------------------------------------------------


def load_baseline(path: Path | str) -> frozenset[tuple[str, str, str]]:
    """Read a baseline file: a JSON list of finding fingerprints."""
    path = Path(path)
    if not path.exists():
        return frozenset()
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"baseline {path} is not valid JSON: {exc}")
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"baseline {path} must be a JSON list of findings"
        )
    entries = []
    for item in payload:
        if not isinstance(item, dict) or not {"rule", "path", "message"} <= set(
            item
        ):
            raise ConfigurationError(
                f"baseline {path}: each entry needs rule/path/message keys"
            )
        entries.append((item["rule"], item["path"], item["message"]))
    return frozenset(entries)


def write_baseline(path: Path | str, findings: list[Finding]) -> None:
    """Write ``findings`` as a baseline (fingerprints only, sorted)."""
    payload = [
        {"rule": rule, "path": rel, "message": message}
        for rule, rel, message in sorted(f.fingerprint() for f in findings)
    ]
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


# -- shared AST helpers --------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def is_abstract_class(node: ast.ClassDef) -> bool:
    """ABC/Protocol bases or any ``@abstractmethod`` member."""
    for base in node.bases + node.keywords:
        target = base.value if isinstance(base, ast.keyword) else base
        name = dotted_name(target) or ""
        if name.split(".")[-1] in ("ABC", "Protocol", "ABCMeta"):
            return True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                if (dotted_name(deco) or "").split(".")[-1] in (
                    "abstractmethod",
                    "abstractproperty",
                ):
                    return True
    return False


def class_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def class_assign_names(node: ast.ClassDef) -> set[str]:
    """Names bound by plain/annotated assignments in a class body."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            if item.value is not None:
                names.add(item.target.id)
    return names
