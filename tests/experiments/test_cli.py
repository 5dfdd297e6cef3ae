"""Tests for the repro-exp CLI."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig4", "--fast"])
        assert args.experiment_id == "fig4"
        assert args.fast


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "ablation_beta" in out

    def test_run_fig4(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "LCM decisions" in out
        assert "n5" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_no_artifacts_flag(self, capsys):
        assert main(["run", "fig1", "--fast", "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "-- birdview --" not in out


class TestRunsCli:
    """`repro-exp runs` and `run --runs-dir/--profile` round trips."""

    def _record(self, tmp_path, capsys, extra=()):
        runs = tmp_path / "runs"
        assert main([
            "run", "fig7", "--fast", "--no-artifacts",
            "--runs-dir", str(runs), *extra,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        run_ids = sorted(p.name for p in runs.iterdir())
        return runs, run_ids

    def test_record_then_list_show_compare_gc(self, tmp_path, capsys):
        runs, _ = self._record(tmp_path, capsys)
        runs, run_ids = self._record(tmp_path, capsys)
        assert len(run_ids) == 2

        assert main(["runs", "--runs-dir", str(runs), "list"]) == 0
        out = capsys.readouterr().out
        for run_id in run_ids:
            assert run_id in out

        assert main([
            "runs", "--runs-dir", str(runs), "list", "--scenario", "nope",
        ]) == 0
        assert "(no runs)" in capsys.readouterr().out

        assert main([
            "runs", "--runs-dir", str(runs), "show", run_ids[0],
        ]) == 0
        out = capsys.readouterr().out
        assert "verified ok" in out
        assert "obs_log" in out

        assert main([
            "runs", "--runs-dir", str(runs), "compare", *run_ids,
        ]) == 0
        out = capsys.readouterr().out
        assert "final_delta" in out and run_ids[1] in out

        stray = runs / "stray.tmp"
        stray.write_bytes(b"x")
        assert main(["runs", "--runs-dir", str(runs), "gc"]) == 0
        assert "--delete" in capsys.readouterr().out
        assert stray.exists()  # dry-run leaves it
        assert main([
            "runs", "--runs-dir", str(runs), "gc", "--delete",
        ]) == 0
        assert not stray.exists()

    def test_show_tampered_run_fails(self, tmp_path, capsys):
        runs, run_ids = self._record(tmp_path, capsys)
        (runs / run_ids[0] / "obs.jsonl").unlink()
        assert main([
            "runs", "--runs-dir", str(runs), "show", run_ids[0],
        ]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_show_unknown_run(self, tmp_path, capsys):
        assert main([
            "runs", "--runs-dir", str(tmp_path), "show", "nope",
        ]) == 2
        assert "no run" in capsys.readouterr().err

    def test_profile_requires_obs_target(self, capsys):
        assert main(["run", "fig7", "--fast", "--profile"]) == 2
        assert "--profile requires" in capsys.readouterr().err

    def test_runs_dir_conflicts_with_obs_log(self, tmp_path, capsys):
        assert main([
            "run", "fig7", "--fast",
            "--runs-dir", str(tmp_path / "runs"),
            "--obs-log", str(tmp_path / "r.jsonl"),
        ]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_profiled_recording(self, tmp_path, capsys):
        import json

        runs, run_ids = self._record(tmp_path, capsys, extra=["--profile"])
        log = runs / run_ids[0] / "obs.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows[0]["event"] == "run_meta"
        # fig7 runs FRA (no scheduler rounds), so profile events are not
        # guaranteed; the flag must at least be recorded in the manifest.
        manifest = json.loads(
            (runs / run_ids[0] / "manifest.json").read_text()
        )
        assert manifest["params"]["profile"] is True

    def test_profile_mem_recorded(self, tmp_path, capsys):
        import json

        runs, run_ids = self._record(tmp_path, capsys, extra=["--profile=mem"])
        manifest = json.loads(
            (runs / run_ids[0] / "manifest.json").read_text()
        )
        assert manifest["params"]["profile"] == "mem"

    def test_profile_rejects_other_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig7", "--fast", "--profile=heap"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_summarize_prints_profile_table(self, tmp_path, capsys):
        from repro.experiments.harness import run_recorded

        runs = tmp_path / "runs"
        _, manifest = run_recorded("fig10", runs, fast=True, profile=True)
        log = runs / manifest.run_id / "obs.jsonl"
        assert main(["obs", "summarize", str(log)]) == 0
        out = capsys.readouterr().out
        assert "== profile:" in out
        assert "rounds profiled:" in out
