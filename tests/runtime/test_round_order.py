"""The order one engine round runs and reports in.

One instrumented, profiled round emits a fixed event stream: each
phase's ``profile.phase`` inside its span, the ``profile.round`` inside
the ``step`` span, and the ``round`` event after ``step`` closes and
before any recorder sees the record. A phase that raises leaves the
clock, the recorders and the event stream without a round.
"""

import pytest

from repro.core.problem import OSTDProblem
from repro.fields.greenorbs import GreenOrbsLightField
from repro.obs import Instrumentation, get_instrumentation, use_profiling
from repro.runtime import cma_phases
from repro.sim.centralized import CentralizedSimulation
from repro.sim.engine import MobileSimulation
from repro.sim.recorders import Recorder

#: One profiled k=16 round: (event, span path or profiled phase).
ROUND_STREAM = [
    ("profile.phase", "capture"),
    ("span", "step/sense/read"),
    ("span", "step/sense/fit"),
    ("profile.phase", "sense"),
    ("span", "step/sense"),
    ("profile.phase", "exchange"),
    ("span", "step/exchange"),
    ("profile.phase", "plan"),
    ("span", "step/plan"),
    ("profile.phase", "constrain_move"),
    ("span", "step/constrain_move"),
    ("profile.phase", "lcm"),
    ("span", "step/lcm"),
    ("profile.phase", "trace"),
    ("span", "step/measure/reconstruct/triangulate"),
    ("span", "step/measure/reconstruct/rasterize"),
    ("span", "step/measure/reconstruct/extrapolate"),
    ("span", "step/measure/reconstruct/score"),
    ("span", "step/measure/reconstruct"),
    ("profile.phase", "measure"),
    ("span", "step/measure"),
    ("profile.round", None),
    ("span", "step"),
    ("round", None),
]


def make_problem(k=16):
    field = GreenOrbsLightField(side=50.0, seed=7, freeze_sun_at=600.0)
    return OSTDProblem(
        k=k, rc=10.0, rs=5.0, region=field.region, field=field,
        speed=1.0, t0=600.0, duration=2.0,
    )


def stream(obs):
    out = []
    for e in obs.memory_events():
        if e.name == "span":
            out.append((e.name, e.fields["path"]))
        elif e.name == "profile.phase":
            out.append((e.name, e.fields["phase"]))
        else:
            out.append((e.name, None))
    return out


class StreamRecorder(Recorder):
    """Notes the event stream as it stands when each record arrives."""

    def __init__(self, obs):
        self.obs = obs
        self.seen = []

    def on_round(self, record):
        self.seen.append(stream(self.obs))


class TestMobileRound:
    def test_profiled_round_event_stream(self):
        obs = Instrumentation.in_memory()
        recorder = StreamRecorder(obs)
        with use_profiling():
            sim = MobileSimulation(
                make_problem(), resolution=21, obs=obs, recorders=[recorder]
            )
        record = sim.step()
        assert stream(obs) == ROUND_STREAM
        # Every span of the round carries its index.
        assert {
            e.fields["round"] for e in obs.memory_events()
            if e.name == "span"
        } == {0}
        # The recorder runs after the round event, and sees it last.
        assert recorder.seen == [ROUND_STREAM]
        assert record.round_index == 0 and sim.round_index == 1

    def test_raising_phase_leaves_round_untouched(self, monkeypatch):
        obs = Instrumentation.in_memory()
        recorder = StreamRecorder(obs)
        sim = MobileSimulation(
            make_problem(), resolution=21, obs=obs, recorders=[recorder]
        )
        t0 = sim.t

        def boom(*args, **kwargs):
            raise RuntimeError("lcm failed")

        monkeypatch.setattr(cma_phases, "lcm", boom)
        ambient = get_instrumentation()
        with pytest.raises(RuntimeError, match="lcm failed"):
            sim.step()
        assert sim.round_index == 0 and sim.t == t0
        assert recorder.seen == []
        names = [name for name, _ in stream(obs)]
        assert "round" not in names
        # The lcm and step spans still closed, and the round's context
        # and ambient instrumentation were unwound.
        paths = [p for name, p in stream(obs) if name == "span"]
        assert paths[-2:] == ["step/lcm", "step"]
        assert obs.timer.current_path == ""
        assert get_instrumentation() is ambient


class TestCentralizedRound:
    def test_round_emits_phase_spans(self):
        obs = Instrumentation.in_memory()
        sim = CentralizedSimulation(make_problem(), resolution=21, obs=obs)
        sim.step()
        paths = [p for name, p in stream(obs) if name == "span"]
        assert [p for p in paths if p.count("/") <= 1] == [
            "step/replan", "step/move", "step/measure", "step",
        ]
        assert "step/measure/reconstruct" in paths
        assert sim.round_index == 1
