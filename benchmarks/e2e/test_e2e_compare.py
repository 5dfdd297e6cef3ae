"""Verdicts of the paired parent-vs-change comparison."""

import pytest

from compare import moved_most, verdict, wins

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_wins_ignore_ties():
    assert wins([1, 2, 3], [0.5, 2, 4], "lower") == 1
    assert wins([1, 2, 3], [0.5, 2, 4], "higher") == 1


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    change = [p - 1.0 for p in PARENT]
    assert verdict(PARENT, change, 0.10, "lower") == "gain"


def test_eight_of_ten_wins_is_not_a_gain():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.05 for p in PARENT[8:]]
    assert wins(PARENT, change, "lower") == 8
    assert verdict(PARENT, change, 0.10, "lower") == "no regression"


def test_consistent_wins_inside_the_parent_iqr_are_not_a_gain():
    change = [p - 0.01 for p in PARENT]
    assert wins(PARENT, change, "lower") == 10
    assert verdict(PARENT, change, 0.10, "lower") == "no regression"


def test_worse_by_more_than_the_bound_is_a_regression():
    change = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, change, 0.10, "lower") == "regression"
    assert verdict(PARENT, change, 0.25, "lower") == "no regression"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.02 for v in noisy]
    assert verdict(noisy, change, 0.10, "lower") == "unresolved"


def test_every_change_run_better_resolves_a_noisy_parent():
    noisy = [9.0] * 5 + [11.0] * 5
    change = [8.9] * 10
    # Better in every run, but by less than the parent's IQR: not a gain,
    # and not unresolved either.
    assert verdict(noisy, change, 0.10, "lower") == "no regression"


def test_higher_is_better_flips_the_direction():
    change = [p * 0.8 for p in PARENT]
    assert verdict(PARENT, change, 0.10, "higher") == "regression"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], 0.10, "higher") == "gain"


def test_verdict_needs_paired_runs():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], 0.1, "lower")


def test_moved_most_names_the_largest_self_time_change():
    parent = {"a": {"self_ms": 10.0}, "b": {"self_ms": 50.0}}
    change = {"a": {"self_ms": 14.0}, "b": {"self_ms": 30.0}, "c": {"self_ms": 1}}
    assert moved_most(parent, change) == ("b", 50.0, 30.0)
    assert moved_most({}, {}) is None
