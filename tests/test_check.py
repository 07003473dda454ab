"""Tests for ``repro.check`` — the project-invariant static analyzer.

Three layers:

- per-rule fixtures: every rule must flag its positive snippet and stay
  silent on its negative twin (``tests/check_fixtures/``);
- machinery: inline suppressions, baseline round-trip, CLI exit codes;
- self-check: the analyzer must exit clean on this repository with the
  committed baseline, and that baseline must be empty (no staged debt).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import ALL_RULES, run_check
from repro.check.cli import DEFAULT_BASELINE, check_command, list_rules
from repro.check.framework import (
    ProjectIndex,
    load_baseline,
    run_rules,
    write_baseline,
)
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "check_fixtures"

#: rule id -> destination of its fixture inside the throwaway project.
#: Determinism rules only fire inside the engine dirs and the RPR102
#: companion test names ``repro.radio.fixmod``, so placement is part of
#: the fixture contract.
DESTINATIONS = {
    "RPR001": "src/repro/sim/fixture_mod.py",
    "RPR002": "src/repro/sim/fixture_mod.py",
    "RPR003": "src/repro/sim/fixture_mod.py",
    "RPR004": "src/repro/sim/fixture_mod.py",
    "RPR005": "src/repro/sim/fixture_mod.py",
    "RPR101": "src/repro/radio/fixmod.py",
    "RPR102": "src/repro/radio/fixmod.py",
    "RPR103": "src/repro/radio/fixmod.py",
    "RPR201": "src/repro/adversary/fixadv.py",
    "RPR202": "src/repro/adversary/fixadv.py",
    "RPR203": "src/repro/adversary/fixadv.py",
    "RPR301": "src/repro/analysis/fixhyg.py",
    "RPR401": "src/repro/analysis/fixhyg.py",
    "RPR501": "src/repro/runner/fixpool.py",
}

#: Companion files some rules need to see in the throwaway tree.
EXTRAS = {
    ("RPR102", "neg"): {"tests/test_fixmod.py": "rpr102_testfile"},
    ("RPR203", "pos"): {"src/repro/fuzz/sampler.py": "rpr203_sampler_pos"},
    ("RPR203", "neg"): {"src/repro/fuzz/sampler.py": "rpr203_sampler_neg"},
}

RULE_IDS = sorted(DESTINATIONS)


def fixture(name: str) -> str:
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    (tmp_path / "src" / "repro").mkdir(parents=True, exist_ok=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return tmp_path


def run_single_rule(tmp_path: Path, rule_id: str, files: dict[str, str]):
    project = ProjectIndex.load(make_project(tmp_path, files))
    rules = [r for r in ALL_RULES if r.rule_id == rule_id]
    assert rules, f"no rule with id {rule_id}"
    return run_rules(project, rules)


def fixture_files(rule_id: str, polarity: str) -> dict[str, str]:
    files = {DESTINATIONS[rule_id]: fixture(f"{rule_id.lower()}_{polarity}")}
    for rel, name in EXTRAS.get((rule_id, polarity), {}).items():
        files[rel] = fixture(name)
    return files


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_flags(self, rule_id, tmp_path):
        findings = run_single_rule(
            tmp_path, rule_id, fixture_files(rule_id, "pos")
        )
        assert findings, f"{rule_id} missed its positive fixture"
        assert all(f.rule_id == rule_id for f in findings)
        assert all(f.line >= 1 and f.message for f in findings)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_fixture_clean(self, rule_id, tmp_path):
        findings = run_single_rule(
            tmp_path, rule_id, fixture_files(rule_id, "neg")
        )
        assert findings == [], (
            f"{rule_id} false positive: "
            + "; ".join(f.format() for f in findings)
        )


class TestSuppression:
    DEST = DESTINATIONS["RPR301"]

    def test_same_line_comment_suppresses(self, tmp_path):
        source = "import numpy as np  # repro: ignore[RPR301]\n"
        assert run_single_rule(tmp_path, "RPR301", {self.DEST: source}) == []

    def test_line_above_comment_suppresses(self, tmp_path):
        source = "# repro: ignore[RPR301]\nimport numpy as np\n"
        assert run_single_rule(tmp_path, "RPR301", {self.DEST: source}) == []

    def test_multi_id_comment_suppresses(self, tmp_path):
        source = "import numpy as np  # repro: ignore[RPR001, RPR301]\n"
        assert run_single_rule(tmp_path, "RPR301", {self.DEST: source}) == []

    def test_wrong_id_does_not_suppress(self, tmp_path):
        source = "import numpy as np  # repro: ignore[RPR401]\n"
        findings = run_single_rule(tmp_path, "RPR301", {self.DEST: source})
        assert [f.rule_id for f in findings] == ["RPR301"]

    def test_far_away_comment_does_not_suppress(self, tmp_path):
        source = "# repro: ignore[RPR301]\n\n\nimport numpy as np\n"
        findings = run_single_rule(tmp_path, "RPR301", {self.DEST: source})
        assert [f.rule_id for f in findings] == ["RPR301"]


class TestBaseline:
    def test_round_trip_excludes_baselined_findings(self, tmp_path):
        root = make_project(
            tmp_path, {DESTINATIONS["RPR401"]: fixture("rpr401_pos")}
        )
        findings = run_check(root)
        assert {f.rule_id for f in findings} == {"RPR401"}
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        reloaded = load_baseline(baseline_path)
        assert reloaded == {f.fingerprint() for f in findings}
        assert run_check(root, baseline_path=baseline_path) == []

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == frozenset()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(ConfigurationError, match="JSON list"):
            load_baseline(bad)
        bad.write_text('[{"rule": "RPR001"}]')
        with pytest.raises(ConfigurationError, match="rule/path/message"):
            load_baseline(bad)


class TestCli:
    def test_exit_one_on_findings_then_zero_with_baseline(self, tmp_path, capsys):
        root = make_project(
            tmp_path, {DESTINATIONS["RPR401"]: fixture("rpr401_pos")}
        )
        assert check_command(root=str(root)) == 1
        out = capsys.readouterr()
        assert "RPR401" in out.out
        baseline = tmp_path / "staged.json"
        assert check_command(
            root=str(root), write_baseline_path=str(baseline)
        ) == 0
        capsys.readouterr()
        assert check_command(root=str(root), baseline=str(baseline)) == 0

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        root = make_project(
            tmp_path, {DESTINATIONS["RPR401"]: fixture("rpr401_pos")}
        )
        assert check_command(root=str(root), as_json=True) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule"] == "RPR401"
        assert {"rule", "path", "line", "col", "message"} <= set(payload[0])

    def test_bogus_root_exits_two(self, tmp_path, capsys):
        assert check_command(root=str(tmp_path / "void")) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_tree_exits_two(self, tmp_path, capsys):
        root = make_project(
            tmp_path, {"src/repro/broken.py": "def oops(:\n"}
        )
        assert check_command(root=str(root)) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_rules_listing_names_every_rule(self):
        listing = list_rules()
        for rule in ALL_RULES:
            assert rule.rule_id in listing


class TestRuleCatalog:
    def test_rule_ids_unique_and_well_formed(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert all(
            len(i) == 6 and i.startswith("RPR") and i[3:].isdigit()
            for i in ids
        )

    def test_every_rule_has_a_fixture_pair(self):
        for rule in ALL_RULES:
            assert rule.rule_id in DESTINATIONS
            low = rule.rule_id.lower()
            assert (FIXTURES / f"{low}_pos.py").is_file()
            assert (FIXTURES / f"{low}_neg.py").is_file()

    def test_catalog_docstring_lists_every_rule(self):
        import repro.check as check_pkg

        for rule in ALL_RULES:
            assert rule.rule_id in (check_pkg.__doc__ or "")


class TestSelfCheck:
    def test_repo_tree_is_clean(self):
        findings = run_check(
            REPO_ROOT, baseline_path=REPO_ROOT / DEFAULT_BASELINE
        )
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_committed_baseline_is_empty(self):
        # The baseline exists only to stage large cleanups mid-PR; on a
        # committed tree it must carry no debt.
        path = REPO_ROOT / DEFAULT_BASELINE
        assert path.is_file()
        assert json.loads(path.read_text(encoding="utf-8")) == []

    def test_module_entry_point_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout) == []
