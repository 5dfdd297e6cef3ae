"""Tests for failure-injection models."""

import pytest

from repro.sim.netmodel import MessageLossModel, NodeFailureSchedule


class TestMessageLoss:
    def test_zero_probability_always_delivers(self):
        model = MessageLossModel(0.0)
        assert all(model.delivered() for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageLossModel(1.0)
        with pytest.raises(ValueError):
            MessageLossModel(-0.1)

    def test_deterministic_given_seed(self):
        a = MessageLossModel(0.5, seed=3)
        b = MessageLossModel(0.5, seed=3)
        assert [a.delivered() for _ in range(50)] == [
            b.delivered() for _ in range(50)
        ]

    def test_loss_rate(self):
        model = MessageLossModel(0.25, seed=0)
        outcomes = [model.delivered() for _ in range(4000)]
        rate = 1.0 - sum(outcomes) / len(outcomes)
        assert 0.2 < rate < 0.3


class TestNodeFailureSchedule:
    def test_fires_once(self):
        sched = NodeFailureSchedule(at={10.0: [1, 2]})
        assert sched.failures_due(5.0) == []
        assert sorted(sched.failures_due(10.0)) == [1, 2]
        assert sched.failures_due(11.0) == []

    def test_late_poll_catches_up(self):
        sched = NodeFailureSchedule(at={10.0: [0]})
        assert sched.failures_due(100.0) == [0]

    def test_multiple_times(self):
        sched = NodeFailureSchedule(at={5.0: [0], 10.0: [1]})
        assert sched.failures_due(7.0) == [0]
        assert sched.failures_due(12.0) == [1]

    def test_reset(self):
        sched = NodeFailureSchedule(at={5.0: [0]})
        sched.failures_due(6.0)
        sched.reset()
        assert sched.failures_due(6.0) == [0]


class TestNodeFailureScheduleEdgeCases:
    """Regression tests: duplicate times and doubly-listed node ids."""

    def test_duplicate_times_in_pair_form_are_merged(self):
        # A dict literal with two equal keys silently keeps only the
        # last; the (time, ids) pair form must merge instead.
        sched = NodeFailureSchedule(at=[(5.0, [0, 1]), (5.0, [2])])
        assert sorted(sched.failures_due(5.0)) == [0, 1, 2]

    def test_int_and_float_times_collide_into_one_slot(self):
        sched = NodeFailureSchedule(at=[(5, [0]), (5.0, [1])])
        assert sorted(sched.failures_due(5.0)) == [0, 1]
        assert sched.failures_due(6.0) == []

    def test_node_listed_at_two_times_dies_once(self):
        sched = NodeFailureSchedule(at={5.0: [3], 8.0: [3, 4]})
        assert sched.failures_due(5.0) == [3]
        # Node 3 is already dead: only the newly doomed node surfaces.
        assert sched.failures_due(8.0) == [4]

    def test_node_listed_twice_at_one_time_announced_once(self):
        sched = NodeFailureSchedule(at=[(5.0, [2, 2])])
        assert sched.failures_due(5.0) == [2]

    def test_late_poll_with_duplicate_ids_no_double_death(self):
        # Both times come due in the same poll; the shared id must not
        # be announced twice.
        sched = NodeFailureSchedule(at={5.0: [1], 6.0: [1]})
        assert sched.failures_due(10.0) == [1]

    def test_restore_fired_rebuilds_announced_ids(self):
        sched = NodeFailureSchedule(at={5.0: [1], 8.0: [1, 2]})
        sched.failures_due(5.0)
        fired = sched.fired_times()

        restored = NodeFailureSchedule(at={5.0: [1], 8.0: [1, 2]})
        restored.restore_fired(fired)
        # Node 1 already died before the checkpoint: the restored
        # schedule must not re-announce it at its second listing.
        assert restored.failures_due(8.0) == [2]

    def test_empty_schedule(self):
        sched = NodeFailureSchedule()
        assert sched.failures_due(100.0) == []
        assert sched.fired_times() == []
