"""Tests for live monitoring: the tailer and the dashboard."""

import json
import threading

from repro.obs.watch import (
    LineAssembler,
    WatchState,
    follow,
    read_new_lines,
    render_watch,
    watch,
)


def _round(i, delta, **extra):
    row = {"event": "round", "t": float(i), "round": i, "delta": delta,
           "rmse": 1.0, "connected": True, "n_components": 1,
           "n_alive": 8, "n_moved": 2}
    row.update(extra)
    return row


def _net(i, **counts):
    return {"event": "net", "t": float(i), "round": i, **counts}


class TestFollow:
    def test_replays_existing_content_in_once_mode(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rows = [_round(0, 3.0), _round(1, 2.5)]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        got = list(follow(path, stop=lambda: True))
        assert [r["round"] for r in got] == [0, 1]

    def test_partial_trailing_line_is_pending_not_malformed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        full = json.dumps(_round(0, 3.0)) + "\n"
        partial = json.dumps(_round(1, 2.5))
        path.write_text(full + partial[: len(partial) // 2])

        polls = []

        def stop():
            polls.append(None)
            return len(polls) >= 2

        def sleep(_):
            # Between polls the writer finishes the line and appends more.
            with path.open("a") as fh:
                fh.write(partial[len(partial) // 2:] + "\n")
                fh.write(json.dumps(_round(2, 2.0)) + "\n")

        got = list(follow(path, stop=stop, sleep=sleep))
        assert [r["round"] for r in got] == [0, 1, 2]

    def test_torn_terminated_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(_round(0, 3.0)) + "\n"
            + '{"event": "round", "rou\n'
            + json.dumps(_round(2, 2.0)) + "\n"
        )
        got = list(follow(path, stop=lambda: True))
        assert [r["round"] for r in got] == [0, 2]

    def test_missing_file_yields_nothing(self, tmp_path):
        got = list(follow(tmp_path / "nope.jsonl", stop=lambda: True))
        assert got == []

    def test_non_event_rows_are_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"no_event_key": 1}\n[1, 2]\n'
                        + json.dumps(_round(0, 3.0)) + "\n")
        got = list(follow(path, stop=lambda: True))
        assert [r["round"] for r in got] == [0]


class TestLineAssembler:
    def test_lines_come_back_verbatim(self):
        asm = LineAssembler()
        assert asm.push('{"a": 1}\n{"b":  2}\n') == ['{"a": 1}', '{"b":  2}']

    def test_partial_line_stays_pending_across_pushes(self):
        asm = LineAssembler()
        assert asm.push('{"round"') == []
        assert asm.pending == '{"round"'
        assert asm.push(': 1}\n') == ['{"round": 1}']
        assert asm.pending == ""

    def test_chunk_boundaries_do_not_matter(self):
        text = '{"a": 1}\n{"b": 2}\n{"c": 3}\n'
        for size in (1, 2, 3, 5, 7, len(text)):
            asm = LineAssembler()
            got = []
            for i in range(0, len(text), size):
                got.extend(asm.push(text[i:i + size]))
            assert got == ['{"a": 1}', '{"b": 2}', '{"c": 3}'], size

    def test_reset_drops_pending(self):
        asm = LineAssembler()
        asm.push("half a li")
        asm.reset()
        assert asm.pending == ""
        assert asm.push("ne\n") == ["ne"]


class TestReadNewLines:
    def test_incremental_reads_pick_up_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        asm = LineAssembler()
        path.write_text("a\nb\n")
        lines, pos = read_new_lines(path, 0, asm)
        assert lines == ["a", "b"]
        with path.open("a") as fh:
            fh.write("c\n")
        lines, pos = read_new_lines(path, pos, asm)
        assert lines == ["c"]
        # no growth -> no read, position unchanged
        assert read_new_lines(path, pos, asm) == ([], pos)

    def test_missing_file_is_quietly_empty(self, tmp_path):
        asm = LineAssembler()
        assert read_new_lines(tmp_path / "nope", 0, asm) == ([], 0)

    def test_flush_mid_line_is_pending_until_newline(self, tmp_path):
        # a writer may flush in the middle of a JSON object; the torn
        # half must neither surface nor be lost
        path = tmp_path / "log.jsonl"
        asm = LineAssembler()
        path.write_text('{"round": ')
        lines, pos = read_new_lines(path, 0, asm)
        assert lines == [] and pos > 0
        with path.open("a") as fh:
            fh.write('1}\n')
        lines, pos = read_new_lines(path, pos, asm)
        assert lines == ['{"round": 1}']

    def test_rotation_resets_to_the_new_file(self, tmp_path):
        # the latent gap this PR fixes: a file that shrank (rotated /
        # truncated / replaced) used to stall the tailer forever at the
        # old offset — now it re-reads from byte zero
        path = tmp_path / "log.jsonl"
        asm = LineAssembler()
        path.write_text("old-1\nold-2\nhalf a li")
        lines, pos = read_new_lines(path, 0, asm)
        assert lines == ["old-1", "old-2"]
        assert asm.pending == "half a li"

        path.write_text("new-1\n")  # rotation: smaller file, fresh content
        lines, pos = read_new_lines(path, pos, asm)
        assert lines == ["new-1"]
        assert pos == len("new-1\n")
        # the stale partial line did not contaminate the new stream
        assert asm.pending == ""

    def test_follow_survives_rotation(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps(_round(0, 3.0)) + "\n" + json.dumps(_round(1, 2.0)) + "\n"
        )

        polls = []

        def stop():
            polls.append(None)
            return len(polls) >= 2

        def sleep(_):
            # between polls the log is rotated and a (shorter) new run
            # starts — shrinkage is how the tailer detects rotation
            path.write_text(json.dumps(_round(7, 1.0)) + "\n")

        got = list(follow(path, stop=stop, sleep=sleep))
        assert [r["round"] for r in got] == [0, 1, 7]

    def test_concurrent_writer_reader_loses_nothing(self, tmp_path):
        """Regression: tail a JsonlSink-written log while it grows.

        The writer flushes after every event (the serve configuration);
        the reader polls with read_new_lines. Every line must come back
        byte-verbatim, exactly once, in order — torn reads surface here
        as JSON parse failures or missing rounds.
        """
        from repro.obs.events import Event
        from repro.obs.sinks import JsonlSink

        path = tmp_path / "log.jsonl"
        n_events = 200
        done = threading.Event()

        def write():
            sink = JsonlSink(path, flush_every=1)
            for i in range(n_events):
                sink.write(Event(name="round", t=float(i),
                                 fields={"round": i, "delta": 1.0 / (i + 1)}))
            sink.close()
            done.set()

        writer = threading.Thread(target=write)
        writer.start()
        asm = LineAssembler()
        got, pos = [], 0
        while True:
            finished = done.is_set()
            lines, pos = read_new_lines(path, pos, asm)
            got.extend(lines)
            if finished and not lines:
                break
        writer.join()

        assert got == path.read_text().splitlines()
        rows = [json.loads(line) for line in got]
        assert [r["round"] for r in rows] == list(range(n_events))
        assert asm.pending == ""


class TestWatchState:
    def test_folds_rounds_spans_and_network_counts(self):
        state = WatchState()
        state.feed(_round(0, 3.0))
        state.feed({"event": "span", "t": 1.0, "phase": "sense",
                    "path": "step/sense", "dur_s": 0.25, "depth": 1})
        state.feed(_net(0, sent=4, delivered=3, lost=1))
        state.feed(_net(1, sent=5, delivered=5, lost=0))
        assert state.n_events == 4
        assert state.last_round["round"] == 0
        assert state.deltas == [3.0]
        assert state.phase_totals["step/sense"] == 0.25
        assert state.net_counts == {"sent": 9, "delivered": 8, "lost": 1}

    def test_nan_delta_is_not_plotted(self):
        state = WatchState()
        state.feed(_round(0, float("nan")))
        assert state.deltas == []

    def test_delta_history_is_bounded(self):
        state = WatchState()
        state.max_deltas = 5
        for i in range(12):
            state.feed(_round(i, float(i)))
        assert state.deltas == [7.0, 8.0, 9.0, 10.0, 11.0]

    def test_render_includes_all_sections(self):
        state = WatchState()
        state.feed(_round(0, 3.0))
        state.feed({"event": "span", "t": 1.0, "phase": "step",
                    "path": "step", "dur_s": 0.5, "depth": 0})
        state.feed(_net(0, sent=2, delivered=1, lost=1))
        text = render_watch(state, "demo")
        assert "watching: demo" in text
        assert "round    0" in text
        assert "step" in text
        assert "network: sent=2  delivered=1  lost=1" in text

    def test_render_with_no_events(self):
        text = render_watch(WatchState(), "empty")
        assert "no round events yet" in text


class TestWatchOnce:
    def test_once_sums_a_networked_runs_net_events(self, tmp_path):
        from repro.core.problem import OSTDProblem
        from repro.fields.greenorbs import GreenOrbsLightField
        from repro.obs import Instrumentation
        from repro.sim.engine import MobileSimulation
        from repro.sim.netmodel import BernoulliLink, NetworkModel

        field = GreenOrbsLightField(side=40.0, seed=7, freeze_sun_at=600.0)
        problem = OSTDProblem(
            k=8, rc=12.0, rs=6.0, region=field.region, field=field,
            speed=1.0, t0=600.0, duration=3.0,
        )
        path = tmp_path / "run.jsonl"
        obs = Instrumentation.to_jsonl(path)
        MobileSimulation(
            problem, resolution=21, obs=obs,
            network=NetworkModel(BernoulliLink(0.3, seed=3), max_age=2),
        ).run()
        snapshot = obs.metrics.snapshot()
        obs.close()
        frames = []
        state = watch(path, once=True, out=frames.append)
        assert state.net_counts["sent"] > 0
        assert {
            "net." + name: total
            for name, total in state.net_counts.items() if total
        } == {
            name: value for name, value in snapshot.items()
            if name.startswith("net.")
        }
        assert f"network: sent={state.net_counts['sent']}  " in frames[0]

    def test_once_renders_single_frame_and_returns_state(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(
            json.dumps(_round(i, 3.0 - i * 0.1)) + "\n" for i in range(4)
        ))
        frames = []
        state = watch(path, once=True, out=frames.append)
        assert len(frames) == 1
        assert state.n_events == 4
        assert "round    3" in frames[0]


class TestWatchRunMeta:
    def test_header_captured_and_rendered(self):
        state = WatchState()
        state.feed({
            "event": "run_meta", "t": 0.0, "schema_version": 1,
            "scenario_id": "fig10", "seed": 7,
            "params_hash": "sha256:abcd1234abcd1234",
        })
        assert state.run_meta["scenario_id"] == "fig10"
        assert "event" not in state.run_meta and "t" not in state.run_meta
        text = render_watch(state, "demo")
        assert "scenario fig10" in text
        assert "seed 7" in text
        assert "params sha256:abcd1234abcd1234" in text

    def test_headerless_log_renders_without_meta_line(self):
        text = render_watch(WatchState(), "demo")
        assert "scenario" not in text

