"""End-to-end: instrumented runs produce replayable, summarisable logs."""

import numpy as np

from repro.core.fra import FRAConfig, foresighted_refinement, solve_osd
from repro.core.problem import OSDProblem, OSTDProblem
from repro.experiments import config
from repro.experiments.cli import main
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import (
    Instrumentation,
    format_summary,
    load_run_log,
    summarize_run_log,
    use_instrumentation,
)
from repro.sim.engine import MobileSimulation


def make_problem(duration=3.0):
    field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
    return OSTDProblem(
        k=16, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=duration,
    )


class TestCMARunLog:
    def test_jsonl_log_summarises_without_rerun(self, tmp_path):
        path = tmp_path / "cma.jsonl"
        obs = Instrumentation.to_jsonl(path)
        with use_instrumentation(obs):
            MobileSimulation(make_problem(), resolution=41).run()
        obs.close()

        rows = load_run_log(path)
        assert any(r["event"] == "round" for r in rows)
        assert any(r["event"] == "span" for r in rows)

        summary = summarize_run_log(path)
        by_path = {p.path: p for p in summary.phases}
        for phase in ("step", "step/sense", "step/plan", "step/measure"):
            assert phase in by_path, f"missing phase {phase}"
        # Shares are percentages of the root total: step is the only root.
        assert by_path["step"].share > 0.95
        assert summary.rounds is not None
        assert summary.rounds.n_rounds == 3
        assert np.isfinite(summary.rounds.delta_final)

        text = format_summary(summary)
        assert "%" in text
        assert "delta:" in text

    def test_log_matches_simulation_result(self, tmp_path):
        path = tmp_path / "cma.jsonl"
        obs = Instrumentation.to_jsonl(path)
        with use_instrumentation(obs):
            result = MobileSimulation(make_problem(), resolution=41).run()
        obs.close()
        rounds = [r for r in load_run_log(path) if r["event"] == "round"]
        assert [r["round"] for r in rounds] == [0, 1, 2]
        assert np.allclose([r["delta"] for r in rounds], result.deltas)
        moved = sum(r.n_moved for r in result.rounds)
        assert sum(r["n_moved"] for r in rounds) == moved


def fig10_fast_run(obs=None):
    """The fig10 ``--fast`` simulation (k=100, 8 rounds), optionally traced."""
    sc = config.scale(True)
    field = config.ostd_field()
    problem = OSTDProblem(
        k=100, rc=config.RC, rs=config.RS, region=field.region, field=field,
        speed=config.SPEED, t0=config.T_REFERENCE,
        duration=float(sc.n_rounds),
    )
    with use_instrumentation(obs or Instrumentation.disabled()):
        return MobileSimulation(
            problem, params=config.cma_params(), resolution=sc.resolution,
        ).run()


class TestReconstructSpans:
    def test_stages_nest_under_measure_reconstruct(self):
        obs = Instrumentation.in_memory()
        result = fig10_fast_run(obs)
        paths = [e.fields["path"] for e in obs.memory_events()
                 if e.name == "span"]
        n_rounds = len(result.rounds)
        for stage in ("triangulate", "rasterize", "extrapolate", "score"):
            assert paths.count(f"step/measure/reconstruct/{stage}") == (
                n_rounds
            ), stage
        assert not [p for p in paths
                    if p.endswith(("/triangulate", "/rasterize",
                                   "/extrapolate", "/score"))
                    and not p.startswith("step/measure/reconstruct/")]

    def test_explicit_obs_gets_reconstruct_spans(self):
        # An engine handed obs= directly, with nothing installed
        # ambiently, still logs the reconstruction under its step.
        obs = Instrumentation.in_memory()
        result = MobileSimulation(
            make_problem(duration=2.0), resolution=41, obs=obs
        ).run()
        paths = [e.fields["path"] for e in obs.memory_events()
                 if e.name == "span"]
        for stage in ("triangulate", "rasterize", "extrapolate", "score"):
            assert paths.count(f"step/measure/reconstruct/{stage}") == (
                len(result.rounds)
            ), stage

    def test_traced_run_matches_untraced(self):
        plain = fig10_fast_run()
        traced = fig10_fast_run(Instrumentation.in_memory())
        assert np.array_equal(plain.deltas, traced.deltas)
        for a, b in zip(plain.rounds, traced.rounds, strict=True):
            assert np.array_equal(a.positions, b.positions)


class TestFRARunLog:
    def test_refinement_events_logged(self):
        field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
        reference = sample_grid(field, field.region, 41, t=600.0)
        obs = Instrumentation.in_memory()
        result = foresighted_refinement(reference, k=20, rc=10.0, obs=obs)
        refines = [e for e in obs.memory_events() if e.name == "fra_refine"]
        stops = [e for e in obs.memory_events() if e.name == "fra_stop"]
        assert len(refines) >= result.n_refinement
        assert len(stops) == 1
        # Budget state decreases monotonically across iterations.
        budgets = [e.fields["budget"] for e in refines]
        assert budgets == sorted(budgets, reverse=True)
        # Every iteration reports the before/after local-error state.
        for e in refines:
            assert e.fields["err_before"] >= 0.0
            assert e.fields["err_after"] >= 0.0
        # Foresight is timed on its own, inside the refine loop.
        paths = [e.fields["path"] for e in obs.memory_events() if e.name == "span"]
        assert paths.count("fra_refine_loop/fra_foresight") > result.n_refinement
        # Each insert after the corners updates the local-error grid once,
        # timed as rasterize inside the loop (leftover picks come after it).
        in_loop = [e for e in refines if e.fields["kind"] != "leftover"]
        assert paths.count("fra_refine_loop/rasterize") == len(in_loop)

    def test_solve_osd_obs_gets_reconstruct_spans(self):
        # solve_osd handed obs= directly, with nothing installed
        # ambiently, logs the final and every history reconstruction.
        field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
        reference = sample_grid(field, field.region, 41, t=600.0)
        obs = Instrumentation.in_memory()
        result = solve_osd(
            OSDProblem(k=20, rc=10.0, reference=reference),
            FRAConfig(record_history=True),
            obs=obs,
        )
        paths = [e.fields["path"] for e in obs.memory_events() if e.name == "span"]
        n_history = len(result.meta["history"])
        assert n_history > 0
        for stage in ("triangulate", "score"):
            assert paths.count(f"reconstruct/{stage}") == 1, stage
            assert paths.count(f"fra_refine_loop/reconstruct/{stage}") == (
                n_history
            ), stage

    def test_instrumentation_does_not_change_result(self):
        field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
        reference = sample_grid(field, field.region, 41, t=600.0)
        plain = foresighted_refinement(reference, k=20, rc=10.0)
        logged = foresighted_refinement(
            reference, k=20, rc=10.0, obs=Instrumentation.in_memory()
        )
        assert np.array_equal(plain.positions, logged.positions)


class TestCLI:
    def test_obs_summarize_command(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        obs = Instrumentation.to_jsonl(path)
        with use_instrumentation(obs):
            MobileSimulation(make_problem(duration=2.0), resolution=41).run()
        obs.close()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase wall time" in out
        assert "step/measure" in out
        assert "rounds: 2" in out

    def test_obs_summarize_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err

    def test_run_with_obs_log(self, tmp_path, capsys):
        path = tmp_path / "fig4.jsonl"
        assert main(["run", "fig4", "--no-artifacts",
                     "--obs-log", str(path)]) == 0
        assert path.exists()
        assert "wrote event log" in capsys.readouterr().out
        # fig4 is a pure-LCM scenario: the log may be sparse, but it must
        # at least parse and end with the metrics snapshot.
        rows = load_run_log(path)
        assert rows[-1]["event"] == "metrics"
