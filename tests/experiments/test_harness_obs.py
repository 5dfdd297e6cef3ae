"""Harness plumbing: obs shard merge and checkpoint wiring.

The process-pool fan-out cannot carry ambient instrumentation across the
fork boundary, so workers write per-task JSONL shards that the parent
replays into its own sinks; these tests exercise the shard replay and the
``run_experiment`` checkpoint/obs wiring without paying for a real pool.
"""

import json

import pytest

from repro.experiments.harness import (
    _replay_shard,
    run_experiment,
    run_recorded,
)
from repro.obs import Instrumentation, RunRegistry, use_instrumentation


class TestReplayShard:
    def test_events_land_in_memory_sink(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        rows = [
            {"event": "round", "t": 1.5, "delta": 0.3, "round_index": 0},
            {"event": "span", "t": 2.0, "name": "sense", "ms": 1.25},
        ]
        shard.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        obs = Instrumentation.in_memory()
        _replay_shard(obs, shard)
        events = obs.memory_events()
        assert [e.name for e in events] == ["round", "span"]
        # Worker-relative timestamps survive (no restamping on replay).
        assert [e.t for e in events] == [1.5, 2.0]
        assert events[0].fields == {"delta": 0.3, "round_index": 0}

    def test_blank_lines_skipped(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        shard.write_text(
            '\n{"event": "x", "t": 0.0}\n\n', encoding="utf-8"
        )
        obs = Instrumentation.in_memory()
        _replay_shard(obs, shard)
        assert len(obs.memory_events()) == 1

    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        """A crashed worker's torn final line must not poison the merge."""
        shard = tmp_path / "shard.jsonl"
        shard.write_text(
            json.dumps({"event": "round", "t": 0.1, "delta": 5.0}) + "\n"
            + '{"event": "round", "t": 0.2, "del',  # died mid-write
            encoding="utf-8",
        )
        obs = Instrumentation.in_memory()
        _replay_shard(obs, shard)
        events = obs.memory_events()
        assert [e.name for e in events] == ["round", "log_warning"]
        warning = events[-1].fields
        assert warning["reason"] == "truncated_shard_tail"
        assert warning["shard"] == "shard.jsonl"
        assert warning["line"] == 2

    def test_malformed_non_json_tail_also_warns(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        shard.write_text(
            json.dumps({"event": "x", "t": 0.0}) + "\n"
            + json.dumps({"no_event_key": 1, "t": 0.0}) + "\n",
            encoding="utf-8",
        )
        obs = Instrumentation.in_memory()
        _replay_shard(obs, shard)
        assert [e.name for e in obs.memory_events()] == [
            "x", "log_warning"
        ]

    def test_mid_file_garbage_still_raises(self, tmp_path):
        """Corruption before the tail is a real error, not a torn write."""
        shard = tmp_path / "shard.jsonl"
        shard.write_text(
            "garbage\n"
            + json.dumps({"event": "x", "t": 0.0}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="malformed shard line"):
            _replay_shard(Instrumentation.in_memory(), shard)

    def test_returns_metrics_rows(self, tmp_path):
        shard = tmp_path / "shard.jsonl"
        shard.write_text(
            json.dumps({
                "event": "metrics", "t": 0.5,
                "snapshot": {"net.sent": 3.0},
                "kinds": {"net.sent": "counter"},
            }) + "\n",
            encoding="utf-8",
        )
        rows = _replay_shard(Instrumentation.in_memory(), shard)
        assert rows == [{
            "event": "metrics", "t": 0.5,
            "snapshot": {"net.sent": 3.0},
            "kinds": {"net.sent": "counter"},
        }]


class TestRunExperimentWiring:
    def test_obs_log_written(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_experiment("fig7", fast=True, obs_log=log)
        lines = [
            json.loads(line)
            for line in log.read_text().splitlines()
            if line.strip()
        ]
        assert lines, "instrumented run produced no events"
        # The instrumentation closed cleanly: final metrics snapshot event.
        assert lines[-1]["event"] == "metrics"

    def test_obs_log_does_not_leak_ambient(self, tmp_path):
        from repro.obs.instrument import get_instrumentation

        run_experiment("fig7", fast=True, obs_log=tmp_path / "run.jsonl")
        assert not get_instrumentation().enabled

    def test_checkpoint_dir_namespaced_by_experiment(self, tmp_path):
        run_experiment(
            "ablation_beta", fast=True,
            checkpoint_dir=tmp_path, checkpoint_every=5,
        )
        ckpts = list((tmp_path / "ablation_beta").rglob("*.ckpt.npz"))
        assert ckpts, "no checkpoints written under the experiment's dir"

    def test_resume_reproduces_rows(self, tmp_path):
        first = run_experiment(
            "ablation_beta", fast=True,
            checkpoint_dir=tmp_path, checkpoint_every=5,
        )
        second = run_experiment(
            "ablation_beta", fast=True,
            checkpoint_dir=tmp_path, checkpoint_every=5, resume=True,
        )
        assert first.rows == second.rows

    def test_run_meta_is_first_event(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_experiment("fig7", fast=True, obs_log=log)
        first = json.loads(log.read_text().splitlines()[0])
        assert first["event"] == "run_meta"
        assert first["scenario_id"] == "fig7"
        assert first["seed"] == 7
        assert first["schema_version"] == 1
        assert first["params_hash"].startswith("sha256:")

    def test_profile_flag_emits_profile_events(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_experiment("fig10", fast=True, obs_log=log, profile=True)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        names = {row["event"] for row in rows}
        assert "profile.phase" in names
        assert "profile.round" in names
        # A bare --profile leaves tracemalloc off (--profile=mem turns it on).
        assert not any(
            "alloc_delta_b" in row for row in rows
            if row["event"] == "profile.phase"
        )

    def test_each_cma_experiment_logs_its_own_rounds(self, tmp_path):
        # fig8/9/10 share one simulation; a second of them in the same
        # process must run it again rather than replay it into its log.
        logs = []
        for experiment_id in ("fig8", "fig10"):
            log = tmp_path / f"{experiment_id}.jsonl"
            run_experiment(experiment_id, fast=True, obs_log=log)
            logs.append(log)
        for log in logs:
            rounds = [
                row for row in map(json.loads, log.read_text().splitlines())
                if row["event"] == "round"
            ]
            assert rounds, f"{log.name} holds no round events"

    def test_no_profile_events_without_flag(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_experiment("fig10", fast=True, obs_log=log)
        names = {
            json.loads(line)["event"]
            for line in log.read_text().splitlines()
        }
        assert not any(n.startswith("profile.") for n in names)


class TestPooledAggregation:
    def test_merged_log_gets_fleet_rollup(self, tmp_path, monkeypatch):
        """The pooled merged log ends with one aggregated metrics event
        consistent with re-merging the per-worker snapshots."""
        from repro.experiments import harness
        from repro.experiments.registry import get_experiment
        from repro.obs import aggregate_metrics_events

        monkeypatch.setattr(
            harness, "all_experiments",
            lambda: [get_experiment("fig7"), get_experiment("fig1")],
        )
        log = tmp_path / "merged.jsonl"
        harness.collect_results(fast=True, processes=2, obs_log=log)
        rows = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert rows[0]["event"] == "run_meta"
        assert rows[0]["scenario_id"] == "all"
        # Each worker's own header survives the merge, in shard order.
        scenarios = [
            r["scenario_id"] for r in rows if r["event"] == "run_meta"
        ]
        assert scenarios == ["all", "fig7", "fig1"]

        rollups = [
            r for r in rows
            if r["event"] == "metrics" and r.get("aggregated")
        ]
        assert len(rollups) == 1
        merged, n_shards = aggregate_metrics_events(rows)
        assert rollups[0]["snapshot"] == merged
        assert rollups[0]["shards"] == n_shards
        # summarize picks the rollup (it is the last metrics event).
        from repro.obs import summarize_events

        assert summarize_events(rows).metrics == merged


class TestRunRecorded:
    def test_manifest_written_and_verifiable(self, tmp_path):
        runs = tmp_path / "runs"
        result, manifest = run_recorded("fig10", runs, fast=True)
        run_dir = runs / manifest.run_id
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "obs.jsonl").exists()
        assert (run_dir / "result.json").exists()

        assert manifest.scenario_id == "fig10"
        assert manifest.status == "complete"
        assert manifest.round_count > 0
        assert manifest.final_delta is not None
        assert manifest.seeds == {"field": 7}
        assert manifest.counters  # scalar rollup from the metrics event
        assert {a.name for a in manifest.artifacts} == {
            "obs_log", "result"
        }

        registry = RunRegistry(runs)
        assert registry.get(manifest.run_id).run_id == manifest.run_id
        assert registry.verify(manifest.run_id).ok
        # The run dir is fully manifested: gc finds nothing to collect.
        assert registry.gc().n_orphans == 0

        payload = json.loads((run_dir / "result.json").read_text())
        assert payload["experiment_id"] == "fig10"
        assert payload["rows"] == result.rows

    def test_failed_run_still_leaves_manifest(self, tmp_path):
        runs = tmp_path / "runs"
        with pytest.raises(KeyError):
            run_recorded("no_such_experiment", runs)
        manifests = RunRegistry(runs).list_runs()
        assert len(manifests) == 1
        assert manifests[0].status == "failed"

    def test_checkpoints_manifested(self, tmp_path):
        runs = tmp_path / "runs"
        _, manifest = run_recorded(
            "ablation_beta", runs, fast=True,
            checkpoints=True, checkpoint_every=5,
        )
        kinds = {a.kind for a in manifest.artifacts}
        assert "checkpoint" in kinds
        assert RunRegistry(runs).verify(manifest.run_id).ok
        assert RunRegistry(runs).gc().n_orphans == 0
