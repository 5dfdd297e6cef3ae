"""BENCHMARK.json is well formed and agrees with what the runner prints."""

import json
import re
import shutil
import subprocess
import tracemalloc
from pathlib import Path

import run
from bench_trace import LayerTracer

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text("utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["command"]) <= 32
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    for arg in SPEC["command"][1:]:
        assert any(arg.startswith(p) for p in SPEC["paths"]), arg


def test_names_units_and_bounds():
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_agree_both_ways():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_agree_both_ways():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.E2E_UNITS


def test_per_layer_metrics_agree_both_ways():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == run.LAYER_UNITS


def test_a_traced_repetition_yields_every_declared_layer_metric():
    emitted = set(run.layer_metrics(LayerTracer(), 1.0, 30.0))
    # Filled in per run rather than per repetition.
    emitted |= {"trace.overhead_pct", "serve.events_per_job",
                "serve.job_overhead_pct"}
    assert emitted == set(run.LAYER_UNITS)


def test_runner_fails_cleanly_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        ["python3", *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_an_untraced_run_refuses_to_measure_under_tracemalloc():
    args = run.parse_args(["--workload", "cma_fig10", "--seconds", "1"])
    tracemalloc.start()
    try:
        assert run.run_workload(args, ROOT) == 2
    finally:
        tracemalloc.stop()
