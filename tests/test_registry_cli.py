"""Tests for the experiment registry and the `python -m repro` CLI."""

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.runner.parallel import ResultCache


class TestRegistry:
    def test_all_thirteen_experiments_registered(self):
        ids = registry.experiment_ids()
        assert ids == tuple(f"e{i}" for i in range(1, 14))

    def test_every_entry_resolves_runner_and_formatter(self):
        for experiment in registry.all_experiments():
            module = experiment.module()
            assert callable(getattr(module, experiment.runner))
            assert callable(getattr(module, experiment.formatter))

    def test_unknown_id_rejected_with_known_set(self):
        with pytest.raises(ConfigurationError, match="e13"):
            registry.get("e99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.register(registry.get("e1"))

    def test_run_through_registry_with_workers_and_cache(self, tmp_path):
        experiment = registry.get("e1")
        cache = ResultCache(tmp_path, namespace="e1")
        first = experiment.run(workers=2, cache=cache)
        assert cache.stats.stores == len(first.points)
        warm = ResultCache(tmp_path, namespace="e1")
        second = experiment.run(workers=1, cache=warm)
        assert warm.stats.hits == len(first.points)
        assert warm.stats.stores == 0
        assert first == second
        assert "E1" in experiment.format(second)


class TestCli:
    def test_run_subcommand_with_workers(self, capsys):
        assert main(["run", "e11", "--workers", "2", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "E11" in out and "finished" in out

    def test_run_multiple_experiments_shows_positions(self, capsys):
        assert main(["run", "e11", "e6", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out

    def test_cache_dir_reports_hits_on_second_run(self, tmp_path, capsys):
        cache_arg = ["--cache-dir", str(tmp_path), "--no-progress"]
        assert main(["run", "e11", *cache_arg]) == 0
        capsys.readouterr()
        assert main(["run", "e11", *cache_arg]) == 0
        out = capsys.readouterr().out
        assert "15 hits, 0 stored" in out

    def test_legacy_bare_experiment_form(self, capsys):
        assert main(["e11"]) == 0
        assert "E11" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "e13" in out

    def test_unknown_experiment_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "e99"])


class TestScenarioCli:
    def test_list_shows_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out and "figure2" in out and "reactive" in out

    def test_dump_emits_loadable_json(self, capsys):
        import json

        from repro.scenario import ScenarioSpec, preset

        assert main(["scenario", "dump", "quickstart"]) == 0
        out = capsys.readouterr().out
        spec = ScenarioSpec.from_dict(json.loads(out))
        assert spec == preset("quickstart")

    def test_run_preset_with_cache_hits_on_rerun(self, tmp_path, capsys):
        cache_args = ["--cache-dir", str(tmp_path), "--no-progress"]
        assert main(["scenario", "run", "quickstart", *cache_args]) == 0
        first = capsys.readouterr().out
        assert "1 stored" in first and "success" in first
        assert main(["scenario", "run", "quickstart", *cache_args]) == 0
        second = capsys.readouterr().out
        assert "1 hits, 0 stored" in second

    def test_run_json_file_no_python_needed(self, tmp_path, capsys):
        import json

        from repro.scenario import preset

        payload = preset("quickstart").to_dict()
        payload["m"] = 3  # still >= m0 for this placement
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["scenario", "run", str(path), "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out  # success column

    def test_run_json_list_sweeps_all(self, tmp_path, capsys):
        import json

        from repro.scenario import preset

        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps([preset("quickstart").to_dict(),
                        preset("reactive").to_dict()]),
            encoding="utf-8",
        )
        assert main(["scenario", "run", str(path), "--workers", "2",
                     "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out

    def test_bad_scenario_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"width": 30}}', encoding="utf-8")
        assert main(["scenario", "run", str(path), "--no-progress"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_exits_nonzero(self, capsys):
        assert main(["scenario", "run", "warp-speed", "--no-progress"]) == 2
        assert "quickstart" in capsys.readouterr().err
