"""Smoke tests for the ``figure`` CLI and every shipped example script."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts.registry import ARTIFACTS, Artifact
from repro.artifacts.result import ExperimentResult
from repro.campaign.__main__ import DERIVED_ARTIFACTS, main

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


class TestCLI:
    def test_list(self, capsys):
        assert main(["figure", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.split() == list(ARTIFACTS)

    def test_no_id_lists(self, capsys):
        assert main(["figure"]) == 0
        assert "fig15" in capsys.readouterr().out

    def test_run_single_experiment(self, capsys):
        assert main(["figure", "table1", "--scale", "0.15"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_sources_flag_filtered_per_signature(self, capsys):
        # table1 takes no num_sources; the CLI must not crash passing it
        assert main(["figure", "table1", "--scale", "0.15", "--sources", "10"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_experiment_with_sources(self, capsys):
        assert main(["figure", "fig07", "--scale", "0.2", "--sources", "15"]) == 0
        assert "NoC" in capsys.readouterr().out

    def test_unknown_experiment_lists_valid_ids(self, capsys):
        # CLI UX: a typo'd id prints the valid ids, not a bare KeyError
        assert main(["figure", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown artifact 'nope'" in err
        assert "fig07" in err and "mobility_rate" in err

    @pytest.mark.parametrize("sources", ["0", "-3"])
    def test_nonpositive_sources_rejected_before_any_cell(
        self, sources, tmp_path, capsys
    ):
        store = tmp_path / "s.jsonl"
        assert main(
            ["figure", "fig07", "--scale", "0.15", "--sources", sources,
             "--store", str(store)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: num_sources must be")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not store.exists() or store.read_text() == ""

    def test_seed_and_seeds_are_exclusive(self, capsys):
        assert main(["figure", "fig07", "--seed", "1", "--seeds", "0,1"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_bad_seeds_one_line_error(self, capsys):
        assert main(["figure", "fig07", "--seeds", "0,banana"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds expects") and "Traceback" not in err

    def test_all_runs_each_artifact_once(self, monkeypatch, capsys):
        ran = []

        def fake_run(self, **kwargs):
            ran.append(self.id)
            return ExperimentResult(self.id, f"title {self.id}", ["a"], [[1]])

        monkeypatch.setattr(Artifact, "run", fake_run)
        assert main(["figure", "all", "--scale", "0.2"]) == 0
        assert DERIVED_ARTIFACTS == {"fig03_04"}
        assert ran == [i for i in ARTIFACTS if i != "fig03_04"]
        out = capsys.readouterr().out
        assert all(f"title {i}" in out for i in ran)


@pytest.mark.slow
class TestExamples:
    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs(self, script):
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        if script.stem == "quickstart":
            assert "mean reachability" in proc.stdout
            assert "bootstrap" in proc.stdout
