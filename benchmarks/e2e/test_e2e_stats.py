"""Percentile rule, quartiles and calibration normalisation."""

import statistics

import pytest

import bench_calib
from bench_stats import percentile, quartiles, relative_iqr, tail_percentile


def test_no_tail_below_ten_samples_beyond_p90():
    assert tail_percentile(list(range(99))) is None


def test_p90_needs_exactly_ten_beyond():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90.0, 90.0)


def test_tail_climbs_the_ladder_with_more_samples():
    assert tail_percentile(list(range(200)))[0] == 95.0
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10000)))[0] == 99.9


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([1, 2, 3, 4], 1) == 1


def test_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_iqr([2.5]) == 0.0


def test_calibration_is_identity_on_the_reference_host():
    assert bench_calib.calibrated(1.25, bench_calib.CAL_REF_MS) == 1.25


def test_calibration_scales_inversely_with_kernel_time():
    ref = bench_calib.CAL_REF_MS
    # A host twice as slow takes twice as long: halve it back.
    assert bench_calib.calibrated(2.0, 2 * ref) == pytest.approx(1.0)
    assert bench_calib.calibrated(0.5, ref / 2) == pytest.approx(1.0)


def test_each_segment_is_calibrated_by_the_kernel_timings_around_it():
    ref = bench_calib.CAL_REF_MS
    # The host halves its speed after the first segment.
    steps, scenario = bench_calib.calibrate_steps(
        [0.1, 0.2, 0.2], [ref, ref, 2 * ref, 2 * ref], wall_s=0.5)
    assert steps == pytest.approx([0.1, 0.2 / 1.5, 0.1])
    # 0.5 - 0.5 = no time outside the segments.
    assert scenario == pytest.approx(sum(steps))


def test_segments_group_into_steps_and_time_outside_them_counts():
    ref = bench_calib.CAL_REF_MS
    steps, scenario = bench_calib.calibrate_steps(
        [0.1, 0.1, 0.1, 0.1], [ref] * 5, wall_s=0.6, per_step=2)
    assert steps == pytest.approx([0.2, 0.2])
    assert scenario == pytest.approx(0.6)


def test_calibration_needs_a_kernel_timing_around_every_segment():
    with pytest.raises(ValueError):
        bench_calib.calibrate_steps([0.1, 0.1], [2.0, 2.0], wall_s=0.2)


def test_calibration_rejects_a_non_positive_kernel_time():
    with pytest.raises(ValueError):
        bench_calib.calibrated(1.0, 0.0)


def test_kernel_is_deterministic_and_timed_in_ms():
    assert bench_calib.kernel() == bench_calib.kernel()
    assert 0.0 < bench_calib.sample() < 10_000.0
