"""Run manifests and the registry over them: identity, integrity, gc."""

import json

import pytest

from repro.obs import (
    RunManifest,
    RunRegistry,
    artifact_ref,
    code_version,
    env_fingerprint,
    file_sha256,
    format_compare,
    format_run_detail,
    format_runs_table,
    new_run_id,
    params_hash,
)
from repro.obs.manifest import MANIFEST_NAME


def make_run(root, run_id, scenario="fig10", started="2026-01-01T00:00:00Z",
             status="complete", payload=b"hello obs\n"):
    """Write a minimal but complete run directory under ``root``."""
    run_dir = root / run_id
    run_dir.mkdir(parents=True)
    log = run_dir / "obs.jsonl"
    log.write_bytes(payload)
    manifest = RunManifest(
        run_id=run_id,
        scenario_id=scenario,
        params={"experiment_id": scenario, "fast": True},
        params_hash=params_hash({"experiment_id": scenario, "fast": True}),
        seeds={"field": 7},
        started_at=started,
        finished_at=started,
        status=status,
        round_count=8,
        final_delta=2739.8,
        counters={"net.sent": 100.0},
        artifacts=[artifact_ref(log, "obs_log", "jsonl", base=run_dir)],
    )
    manifest.save(run_dir / MANIFEST_NAME)
    return manifest


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = make_run(tmp_path, "fig10-x-000001")
        loaded = RunManifest.load(tmp_path / "fig10-x-000001" / MANIFEST_NAME)
        assert loaded.as_dict() == manifest.as_dict()
        assert loaded.final_delta == pytest.approx(2739.8)
        assert loaded.artifact("obs_log").path == "obs.jsonl"
        assert loaded.artifact("nope") is None

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        make_run(tmp_path, "r1")
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_params_hash_canonical(self):
        a = params_hash({"b": 2, "a": 1})
        b = params_hash({"a": 1, "b": 2})
        assert a == b
        assert a.startswith("sha256:")
        assert a != params_hash({"a": 1, "b": 3})

    def test_new_run_id_unique_and_prefixed(self):
        ids = {new_run_id("fig10") for _ in range(16)}
        assert len(ids) == 16
        assert all(i.startswith("fig10-") for i in ids)
        # Scenario ids with path-hostile characters are sanitised.
        assert "/" not in new_run_id("a/b c")

    def test_artifact_ref_relativises_under_base(self, tmp_path):
        f = tmp_path / "sub" / "x.bin"
        f.parent.mkdir()
        f.write_bytes(b"abc")
        ref = artifact_ref(f, "x", "bin", base=tmp_path)
        assert ref.path == "sub/x.bin"
        assert ref.bytes == 3
        assert ref.sha256 == file_sha256(f)
        assert ref.resolve(tmp_path) == tmp_path / "sub" / "x.bin"

    def test_provenance_helpers_nonempty(self):
        assert code_version()  # git hash here, pkg/unknown elsewhere
        env = env_fingerprint()
        assert "python" in env and "numpy" in env

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / MANIFEST_NAME
        bad.write_text("not json")
        with pytest.raises(ValueError):
            RunManifest.load(bad)
        bad.write_text(json.dumps({"no": "ids"}))
        with pytest.raises(ValueError):
            RunManifest.load(bad)


class TestRegistryScanAndQuery:
    def test_empty_or_missing_root(self, tmp_path):
        registry = RunRegistry(tmp_path / "does-not-exist")
        manifests, problems = registry.scan()
        assert manifests == [] and problems == []
        assert registry.list_runs() == []
        assert registry.gc().n_orphans == 0
        assert format_runs_table([]) == "(no runs)"

    def test_list_newest_first_with_filters(self, tmp_path):
        make_run(tmp_path, "a-1", scenario="fig8",
                 started="2026-01-01T00:00:00Z")
        make_run(tmp_path, "b-2", scenario="fig10",
                 started="2026-01-02T00:00:00Z")
        make_run(tmp_path, "c-3", scenario="fig10",
                 started="2026-01-03T00:00:00Z", status="failed")
        registry = RunRegistry(tmp_path)
        assert [m.run_id for m in registry.list_runs()] == [
            "c-3", "b-2", "a-1"
        ]
        assert [m.run_id for m in registry.list_runs(scenario="fig10")] == [
            "c-3", "b-2"
        ]
        assert [m.run_id for m in registry.list_runs(status="failed")] == [
            "c-3"
        ]

    def test_corrupt_manifest_reported_not_fatal(self, tmp_path):
        make_run(tmp_path, "good-1")
        bad_dir = tmp_path / "bad-1"
        bad_dir.mkdir()
        (bad_dir / MANIFEST_NAME).write_text("{torn")
        manifests, problems = RunRegistry(tmp_path).scan()
        assert [m.run_id for m in manifests] == ["good-1"]
        assert len(problems) == 1 and "bad-1" in problems[0]

    def test_get_missing_and_duplicate(self, tmp_path):
        make_run(tmp_path, "r-1")
        registry = RunRegistry(tmp_path)
        with pytest.raises(KeyError):
            registry.get("nope")
        # A second directory claiming the same run id is store corruption.
        dup = tmp_path / "other-dir"
        dup.mkdir()
        (dup / MANIFEST_NAME).write_text(
            json.dumps({"run_id": "r-1", "scenario_id": "fig10"})
        )
        with pytest.raises(ValueError):
            registry.get("r-1")


class TestRegistryVerify:
    def test_verify_ok(self, tmp_path):
        make_run(tmp_path, "r-1")
        report = RunRegistry(tmp_path).verify("r-1")
        assert report.ok
        assert [c.status for c in report.checks] == ["ok"]

    def test_verify_deleted_artifact(self, tmp_path):
        make_run(tmp_path, "r-1")
        (tmp_path / "r-1" / "obs.jsonl").unlink()
        report = RunRegistry(tmp_path).verify("r-1")
        assert not report.ok
        assert report.checks[0].status == "missing"

    def test_verify_modified_artifact(self, tmp_path):
        make_run(tmp_path, "r-1")
        log = tmp_path / "r-1" / "obs.jsonl"
        log.write_bytes(b"tampered!!")  # same length as "hello obs\n"
        report = RunRegistry(tmp_path).verify("r-1")
        assert not report.ok
        assert report.checks[0].status == "hash_mismatch"

    def test_verify_size_mismatch(self, tmp_path):
        make_run(tmp_path, "r-1")
        log = tmp_path / "r-1" / "obs.jsonl"
        log.write_bytes(b"short")
        report = RunRegistry(tmp_path).verify("r-1")
        assert report.checks[0].status == "size_mismatch"


class TestRunsWithTileShardLogs:
    """Runs recorded by earlier versions could carry per-tile obs shard
    logs under ``obs.jsonl.tiles/``; the registry must still read them."""

    def make_tiled_run(self, root):
        manifest = make_run(root, "fig10-tiled-000001")
        run_dir = root / manifest.run_id
        shard_dir = run_dir / "obs.jsonl.tiles"
        shard_dir.mkdir()
        for tile in range(2):
            shard = shard_dir / f"tile-{tile}.jsonl"
            shard.write_bytes(b'{"event": "run_meta"}\n')
            manifest.artifacts.append(artifact_ref(
                shard, str(shard.relative_to(run_dir)), "obs_shard",
                base=run_dir,
            ))
        manifest.save(run_dir / MANIFEST_NAME)
        return manifest

    def test_list_show_verify_gc(self, tmp_path, capsys):
        from repro.experiments.cli import main

        manifest = self.make_tiled_run(tmp_path)
        registry = RunRegistry(tmp_path)
        report = registry.verify(manifest.run_id)
        assert report.ok and len(report.checks) == 3
        assert registry.gc().n_orphans == 0
        root = ["runs", "--runs-dir", str(tmp_path)]
        assert main(root + ["list"]) == 0
        assert main(root + ["show", manifest.run_id]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert "obs.jsonl.tiles/tile-1.jsonl" in out
        assert "verified ok" in out


class TestRegistryGc:
    def test_dry_run_reports_without_deleting(self, tmp_path):
        make_run(tmp_path, "r-1")
        stray = tmp_path / "r-1" / "leftover.npz"
        stray.write_bytes(b"x")
        report = RunRegistry(tmp_path).gc()  # dry-run default
        assert report.dry_run
        assert report.orphans == [stray]
        assert report.removed == []
        assert stray.exists()

    def test_delete_removes_orphans_and_prunes_dirs(self, tmp_path):
        make_run(tmp_path, "r-1")
        crashed = tmp_path / "crashed-run"
        crashed.mkdir()
        (crashed / "obs.jsonl").write_bytes(b"partial")
        report = RunRegistry(tmp_path).gc(dry_run=False)
        assert not report.dry_run
        assert len(report.removed) == 1
        assert not crashed.exists()  # emptied directory pruned
        # The manifested run is untouched.
        assert RunRegistry(tmp_path).verify("r-1").ok


class TestRendering:
    def test_table_detail_compare(self, tmp_path):
        make_run(tmp_path, "a-1", scenario="fig8")
        make_run(tmp_path, "b-2", scenario="fig10")
        registry = RunRegistry(tmp_path)
        table = format_runs_table(registry.list_runs())
        assert "a-1" in table and "b-2" in table and "run_id" in table

        manifest = registry.get("a-1")
        detail = format_run_detail(
            manifest, verify=registry.verify("a-1")
        )
        assert "verified ok" in detail
        assert "net.sent" in detail

        compare = format_compare([registry.get("a-1"), registry.get("b-2")])
        assert "final_delta" in compare
        assert "net.sent" in compare
        assert format_compare([]) == "(no runs to compare)"
