"""Checkpoint format round-trips and bit-identical resume.

The resume-equivalence tests are the runtime's acceptance criterion: a
run interrupted at round ``r`` and resumed from its checkpoint must
reproduce the remaining record series ``np.array_equal``-exactly against
an uninterrupted run — for both engines, with every stochastic model
(message loss, sensor noise, scheduled failures) switched on, so the RNG
stream capture is actually exercised.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.runtime import (
    CheckpointConfig,
    CheckpointManager,
    load_checkpoint,
    save_checkpoint,
    use_checkpointing,
)
from repro.runtime.checkpoint import CHECKPOINT_VERSION, RunPreempted
from repro.runtime.records import RoundRecord
from repro.sim.centralized import CentralizedSimulation
from repro.sim.engine import MobileSimulation
from repro.sim.netmodel import (
    CrashSchedule,
    EnergyDepletionModel,
    GilbertElliottLink,
    MessageLossModel,
    NetworkModel,
    NodeFailureSchedule,
    PerfectLink,
    RandomChurn,
    RetryPolicy,
    UniformDelayModel,
)


def make_problem(k=16, duration=10.0, side=40.0):
    field = GreenOrbsLightField(side=side, seed=3, freeze_sun_at=600.0)
    return OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=duration,
    )


def make_mobile(problem):
    """A mobile engine with every stochastic/failure model enabled."""
    return MobileSimulation(
        problem,
        resolution=41,
        message_loss=MessageLossModel(0.2, seed=3),
        failure_schedule=NodeFailureSchedule(at={602.0: [1, 2]}),
        sensor_noise_std=0.05,
        sensor_noise_seed=11,
    )


#: Fault-model matrix for resume-under-faults tests. Every entry is a
#: zero-argument factory so each of the three runs (baseline,
#: interrupted, resumed) gets fresh model instances with fresh RNG
#: streams — sharing instances would leak state across runs.
FAULT_VARIANTS = {
    "bursty-loss": lambda: dict(
        network=NetworkModel(
            GilbertElliottLink(p_fail=0.2, p_recover=0.3, loss_bad=0.9, seed=3)
        ),
    ),
    "delay-only": lambda: dict(
        network=NetworkModel(
            PerfectLink(),
            delay=UniformDelayModel(2, seed=5),
            max_age=3,
        ),
    ),
    "bursty+delay+retry": lambda: dict(
        network=NetworkModel(
            GilbertElliottLink(p_fail=0.2, p_recover=0.3, loss_bad=0.9, seed=3),
            delay=UniformDelayModel(2, seed=5),
            retry=RetryPolicy(max_retries=2),
            max_age=3,
        ),
    ),
    "churn+bursty+delay": lambda: dict(
        network=NetworkModel(
            GilbertElliottLink(p_fail=0.15, p_recover=0.4, loss_bad=0.8, seed=7),
            delay=UniformDelayModel(1, seed=2),
            max_age=2,
        ),
        crash_model=RandomChurn(0.1, recover_prob=0.4, seed=9),
    ),
    "crash-schedule+energy": lambda: dict(
        crash_model=CrashSchedule(at={602.0: {1: 2, 4: 3}}),
        energy_model=EnergyDepletionModel(
            capacity=4.0, move_cost=1.0, idle_cost=0.2
        ),
    ),
}


def make_faulty_mobile(problem, variant):
    """A mobile engine under one FAULT_VARIANTS configuration."""
    return MobileSimulation(
        problem,
        resolution=41,
        sensor_noise_std=0.05,
        sensor_noise_seed=11,
        **FAULT_VARIANTS[variant](),
    )


def make_centralized(problem):
    return CentralizedSimulation(
        problem, delay_rounds=2, replan_every=2, resolution=41,
    )


def assert_records_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is type(e)
        for f in dataclasses.fields(e):
            gv, ev = getattr(g, f.name), getattr(e, f.name)
            if isinstance(ev, np.ndarray):
                assert np.array_equal(gv, ev), f.name
            else:
                assert gv == ev, f.name


class TestSaveLoad:
    def test_state_round_trips_exactly(self, tmp_path):
        sim = make_mobile(make_problem(duration=4.0))
        sim.run(3)
        state = sim.capture_state()
        path = save_checkpoint(
            tmp_path / "ck.npz", state, engine="MobileSimulation"
        )
        loaded = load_checkpoint(path)
        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.engine == "MobileSimulation"
        assert loaded.state.allclose(state)
        # RNG bit-generator states survive JSON (128-bit PCG64 ints).
        assert loaded.state.rng_states == state.rng_states

    def test_records_round_trip(self, tmp_path):
        sim = make_mobile(make_problem(duration=4.0))
        result = sim.run(3)
        path = save_checkpoint(
            tmp_path / "ck.npz", sim.capture_state(), result.rounds
        )
        loaded = load_checkpoint(path, record_type=RoundRecord)
        assert_records_equal(loaded.records, result.rounds)

    def test_no_pickle_in_file(self, tmp_path):
        sim = make_mobile(make_problem(duration=4.0))
        result = sim.run(2)
        path = save_checkpoint(
            tmp_path / "ck.npz", sim.capture_state(), result.rounds
        )
        # allow_pickle=False is load_checkpoint's default; prove the file
        # really has no object arrays by loading every key that way.
        with np.load(path, allow_pickle=False) as data:
            for key in data.files:
                data[key]

    def test_unknown_version_rejected(self, tmp_path):
        sim = make_mobile(make_problem(duration=4.0))
        sim.run(1)
        path = save_checkpoint(tmp_path / "ck.npz", sim.capture_state())
        # Rewrite the header with a bumped version.
        import json

        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        meta = json.loads(bytes(payload["meta_json"]).decode())
        meta["version"] = CHECKPOINT_VERSION + 1
        payload["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        sim = make_mobile(make_problem(duration=4.0))
        sim.run(1)
        save_checkpoint(tmp_path / "ck.npz", sim.capture_state())
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


class TestManager:
    def test_latest_wins(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        sim = make_mobile(make_problem(duration=6.0))
        for _ in range(3):
            sim.step()
            manager.save(sim.capture_state())
        assert len(manager.existing()) == 3
        latest = manager.load_latest()
        assert latest.state.round_index == 3

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "nope").load_latest() is None

    def test_claim_manager_is_deterministic(self, tmp_path):
        cfg_a = CheckpointConfig(tmp_path)
        cfg_b = CheckpointConfig(tmp_path)
        dirs_a = [cfg_a.claim_manager("mobile").directory for _ in range(2)]
        dirs_b = [cfg_b.claim_manager("mobile").directory for _ in range(2)]
        assert dirs_a == dirs_b
        assert dirs_a[0] != dirs_a[1]

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(tmp_path, every=0)


class TestResumeEquivalence:
    """Interrupt at round r, resume, match the uninterrupted run exactly."""

    def test_mobile_resume_bit_identical(self, tmp_path):
        total, interrupt = 10, 6
        baseline = make_mobile(make_problem()).run(total)

        interrupted = make_mobile(make_problem())
        interrupted.run(
            interrupt, checkpoint=CheckpointConfig(tmp_path, every=3)
        )
        resumed = make_mobile(make_problem()).run(
            total, checkpoint=CheckpointConfig(tmp_path, every=3, resume=True)
        )
        assert_records_equal(resumed.rounds, baseline.rounds)
        assert np.array_equal(resumed.deltas, baseline.deltas)
        assert np.array_equal(resumed.rmses, baseline.rmses)
        assert np.array_equal(
            resumed.final_positions, baseline.final_positions
        )

    def test_centralized_resume_bit_identical(self, tmp_path):
        total, interrupt = 10, 5
        baseline = make_centralized(make_problem()).run(total)

        interrupted = make_centralized(make_problem())
        interrupted.run(
            interrupt, checkpoint=CheckpointConfig(tmp_path, every=5)
        )
        resumed = make_centralized(make_problem()).run(
            total, checkpoint=CheckpointConfig(tmp_path, every=5, resume=True)
        )
        assert_records_equal(resumed.rounds, baseline.rounds)
        assert np.array_equal(resumed.deltas, baseline.deltas)

    def test_mobile_midway_state_matches_uninterrupted(self, tmp_path):
        """The checkpointed state itself equals the uninterrupted engine's."""
        interrupt = 6
        reference = make_mobile(make_problem())
        reference.run(interrupt)

        interrupted = make_mobile(make_problem())
        interrupted.run(
            interrupt, checkpoint=CheckpointConfig(tmp_path, every=6)
        )
        latest = CheckpointManager(
            tmp_path / "mobile-000"
        ).load_latest(record_type=RoundRecord)
        assert latest.state.allclose(reference.capture_state())

    def test_ambient_config_reaches_engine_runs(self, tmp_path):
        baseline = make_mobile(make_problem(duration=6.0)).run(6)
        with use_checkpointing(CheckpointConfig(tmp_path, every=3)):
            make_mobile(make_problem(duration=6.0)).run(4)
        with use_checkpointing(
            CheckpointConfig(tmp_path, every=3, resume=True)
        ):
            resumed = make_mobile(make_problem(duration=6.0)).run(6)
        assert_records_equal(resumed.rounds, baseline.rounds)

    def test_resume_truncates_to_requested_total(self, tmp_path):
        """Asking for fewer rounds than checkpointed returns a prefix."""
        baseline = make_mobile(make_problem(duration=6.0)).run(6)
        make_mobile(make_problem(duration=6.0)).run(
            6, checkpoint=CheckpointConfig(tmp_path, every=3)
        )
        resumed = make_mobile(make_problem(duration=6.0)).run(
            4, checkpoint=CheckpointConfig(tmp_path, every=3, resume=True)
        )
        assert_records_equal(resumed.rounds, baseline.rounds[:4])

    def test_resume_without_checkpoints_runs_from_scratch(self, tmp_path):
        baseline = make_mobile(make_problem(duration=4.0)).run(4)
        fresh = make_mobile(make_problem(duration=4.0)).run(
            4, checkpoint=CheckpointConfig(tmp_path, every=2, resume=True)
        )
        assert_records_equal(fresh.rounds, baseline.rounds)


class TestResumeUnderFaults:
    """Bit-identical resume across the netmodel fault matrix.

    Each variant switches on a different slice of the unreliable-network
    subsystem (bursty channels with per-link Markov state, in-flight
    delayed beacons, retry/backoff RNG churn, crash/recovery bookkeeping,
    battery accounting) — every one of which lives in checkpoint aux
    data and must survive the save→JSON→load round-trip exactly.
    """

    @pytest.mark.parametrize("variant", sorted(FAULT_VARIANTS))
    def test_resume_bit_identical(self, tmp_path, variant):
        total, interrupt = 10, 6
        baseline = make_faulty_mobile(make_problem(), variant).run(total)

        interrupted = make_faulty_mobile(make_problem(), variant)
        interrupted.run(
            interrupt, checkpoint=CheckpointConfig(tmp_path, every=3)
        )
        resumed = make_faulty_mobile(make_problem(), variant).run(
            total, checkpoint=CheckpointConfig(tmp_path, every=3, resume=True)
        )
        assert_records_equal(resumed.rounds, baseline.rounds)
        assert np.array_equal(resumed.deltas, baseline.deltas)
        assert np.array_equal(resumed.rmses, baseline.rmses)
        assert np.array_equal(
            resumed.final_positions, baseline.final_positions
        )

    @pytest.mark.parametrize("variant", sorted(FAULT_VARIANTS))
    def test_midway_state_matches_uninterrupted(self, tmp_path, variant):
        interrupt = 5
        reference = make_faulty_mobile(make_problem(), variant)
        reference.run(interrupt)

        interrupted = make_faulty_mobile(make_problem(), variant)
        interrupted.run(
            interrupt, checkpoint=CheckpointConfig(tmp_path, every=5)
        )
        latest = CheckpointManager(
            tmp_path / "mobile-000"
        ).load_latest(record_type=RoundRecord)
        assert latest.state.allclose(reference.capture_state())


class TestPreemption:
    """Cooperative preemption: the ``interrupt`` hook in drive_run.

    ``repro-serve`` points the hook at a cancel-marker file; here it is
    a plain closure, which pins the loop semantics without any server:
    fire mid-run → off-schedule checkpoint + RunPreempted; resume →
    bit-identical to the uninterrupted run; completion beats
    cancellation.
    """

    def test_interrupt_preempts_with_offschedule_checkpoint(self, tmp_path):
        calls = []

        def interrupt():
            calls.append(None)
            return len(calls) >= 4  # off the every=3 schedule

        with pytest.raises(RunPreempted) as err:
            make_mobile(make_problem()).run(
                10,
                checkpoint=CheckpointConfig(
                    tmp_path, every=3, interrupt=interrupt
                ),
            )
        assert err.value.rounds_completed == 4
        assert err.value.checkpoint_path is not None
        assert err.value.checkpoint_path.exists()
        # no completed work was lost: the save covers all 4 rounds
        latest = CheckpointManager(
            tmp_path / "mobile-000"
        ).load_latest(record_type=RoundRecord)
        assert len(latest.records) == 4

    def test_boundary_interrupt_reuses_the_scheduled_save(self, tmp_path):
        # fire exactly on an every=1 boundary: the scheduled checkpoint
        # doubles as the preemption save — one file, not two
        with pytest.raises(RunPreempted) as err:
            make_mobile(make_problem()).run(
                10,
                checkpoint=CheckpointConfig(
                    tmp_path, every=1, interrupt=lambda: True
                ),
            )
        assert err.value.rounds_completed == 1
        assert len(list((tmp_path / "mobile-000").glob("*.npz"))) == 1

    def test_resume_after_preemption_is_bit_identical(self, tmp_path):
        baseline = make_mobile(make_problem()).run(10)
        fired = []

        def interrupt():
            fired.append(None)
            return len(fired) >= 5

        with pytest.raises(RunPreempted):
            make_mobile(make_problem()).run(
                10,
                checkpoint=CheckpointConfig(
                    tmp_path, every=3, interrupt=interrupt
                ),
            )
        resumed = make_mobile(make_problem()).run(
            10, checkpoint=CheckpointConfig(tmp_path, every=3, resume=True)
        )
        assert_records_equal(resumed.rounds, baseline.rounds)
        assert np.array_equal(resumed.deltas, baseline.deltas)

    def test_completion_beats_cancellation(self, tmp_path):
        # the hook is never consulted once the final round completed:
        # an always-true interrupt cannot preempt a finishing run
        result = make_mobile(make_problem(duration=1.0)).run(
            1,
            checkpoint=CheckpointConfig(
                tmp_path, every=1, interrupt=lambda: True
            ),
        )
        assert len(result.rounds) == 1

    def test_interrupt_not_consulted_after_final_round(self, tmp_path):
        calls = []

        def interrupt():
            calls.append(None)
            return False

        make_mobile(make_problem(duration=5.0)).run(
            5,
            checkpoint=CheckpointConfig(tmp_path, every=5, interrupt=interrupt),
        )
        assert len(calls) == 4  # rounds 1..4, never after round 5

    def test_exception_carries_the_details(self):
        from pathlib import Path

        err = RunPreempted(3, Path("c.npz"))
        assert err.rounds_completed == 3
        assert err.checkpoint_path == Path("c.npz")
        assert "3 round(s)" in str(err)
        assert "c.npz" in str(err)
