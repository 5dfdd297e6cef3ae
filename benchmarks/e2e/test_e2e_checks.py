"""Each workload's correctness check rejects a corrupted result."""

import json

import numpy as np
import pytest

from bench_serve import JOB_ROUNDS, check_job
from bench_workloads import CmaWorkload, FraSweepWorkload, Rep


def _cma_rep(deltas, connected=None, alive=100):
    n = len(deltas)
    return Rep(wall_s=1.0, segments_s=[0.1] * n, cal_ms=[2.0] * (n + 1), outcome={
        "deltas": np.asarray(deltas, dtype=float),
        "connected": connected if connected is not None else [True] * n,
        "alive": [alive] * n,
        "components": [1] * n,
    })


@pytest.fixture
def fig10():
    return CmaWorkload("cma_fig10", 100.0, 100, 4)


def test_cma_accepts_identical_repetitions(fig10):
    assert fig10.check(_cma_rep([4.0, 3.0, 2.5, 2.0])) is None
    assert fig10.check(_cma_rep([4.0, 3.0, 2.5, 2.0])) is None


def test_cma_rejects_a_delta_series_that_differs_between_repetitions(fig10):
    assert fig10.check(_cma_rep([4.0, 3.0, 2.5, 2.0])) is None
    reason = fig10.check(_cma_rep([4.0, 3.0, 2.5, 2.0 + 1e-12]))
    assert "differs" in reason


def test_cma_rejects_a_disconnected_round_under_the_perfect_radio(fig10):
    reason = fig10.check(_cma_rep([4.0, 3.0, 2.5, 2.0],
                                  connected=[True, False, True, True]))
    assert "disconnected" in reason


def test_cma_rejects_a_short_run_and_dead_nodes(fig10):
    assert "rounds" in fig10.check(_cma_rep([4.0, 3.0]))
    assert "died" in CmaWorkload("x", 100.0, 100, 2).check(
        _cma_rep([4.0, 3.0], alive=99))


def test_faults_allow_splits_but_not_a_changing_series():
    faults = CmaWorkload("faults_slice", 100.0, 100, 3, faults=True)
    assert faults.check(_cma_rep([4.0, 3.0, 2.0], connected=[True, False, True],
                                 alive=97)) is None
    assert "differs" in faults.check(_cma_rep([4.0, 3.5, 2.0]))


def _fra_rep(workload, scale=1.0, sizes=None):
    n = len(workload.k_sweep)
    return Rep(wall_s=1.0, segments_s=[0.1] * n, cal_ms=[2.0] * (n + 1), outcome={
        "fra_deltas": np.linspace(100.0, 10.0, n) * scale,
        "random_deltas": np.linspace(120.0, 12.0, n),
        "sizes": sizes if sizes is not None else list(workload.k_sweep),
        "connected": [True] * n,
    })


def test_fra_rejects_a_sweep_that_differs_between_repetitions():
    fra = FraSweepWorkload()
    assert fra.check(_fra_rep(fra)) is None
    assert fra.check(_fra_rep(fra)) is None
    assert "differs" in fra.check(_fra_rep(fra, scale=1.001))


def test_fra_rejects_a_placement_of_the_wrong_size():
    fra = FraSweepWorkload()
    sizes = list(fra.k_sweep)
    sizes[3] -= 1
    assert "sizes" in fra.check(_fra_rep(fra, sizes=sizes))


def _job(events=None, manifest=None):
    if events is None:
        events = [("run_meta", "{}")] + [("round", "{}")] * JOB_ROUNDS + [
            ("end", json.dumps({"state": "done"}))]
    base = {"status": "complete", "round_count": JOB_ROUNDS, "final_delta": 12.5}
    return {"events": events, "result": {"manifest": {**base, **(manifest or {})}}}


def test_served_job_accepts_a_complete_stream():
    assert check_job(_job(), 12.5) is None


def test_served_job_rejects_a_missing_end_event():
    events = _job()["events"][:-1]
    assert "end event" in check_job(_job(events=events), 12.5)


def test_served_job_rejects_a_failed_job_and_lost_rounds():
    failed = _job()["events"][:-1] + [("end", json.dumps({"state": "failed"}))]
    assert "state" in check_job(_job(events=failed), 12.5)
    short = _job()["events"]
    del short[1]
    assert "round events" in check_job(_job(events=short), 12.5)


def test_served_job_must_score_like_the_in_process_run():
    assert "differs" in check_job(_job(manifest={"final_delta": 12.6}), 12.5)
    assert "status" in check_job(_job(manifest={"status": "failed"}), 12.5)
