"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.stats import (confidence_interval, harmonic_mean,
                                 harmonic_mean_speedup, mean, median,
                                 relative_ci_width, sample_stddev,
                                 speedup_percent)

positive_floats = st.floats(min_value=0.01, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_single_value(self):
        assert harmonic_mean([5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, -2.0])

    @given(st.lists(positive_floats, min_size=1, max_size=20))
    def test_never_exceeds_arithmetic_mean(self, values):
        hm = harmonic_mean(values)
        am = sum(values) / len(values)
        assert hm <= am * (1 + 1e-9)

    @given(st.lists(positive_floats, min_size=1, max_size=20))
    def test_bounded_by_extremes(self, values):
        hm = harmonic_mean(values)
        assert min(values) - 1e-9 <= hm <= max(values) + 1e-9


class TestSpeedup:
    def test_speedup_positive_when_faster(self):
        assert speedup_percent(110.0, 100.0) == pytest.approx(10.0)

    def test_speedup_negative_when_slower(self):
        assert speedup_percent(100.0, 125.0) == pytest.approx(-20.0)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            speedup_percent(100.0, 0.0)

    def test_harmonic_mean_speedup_identity(self):
        assert harmonic_mean_speedup([0.0, 0.0]) == pytest.approx(0.0)

    def test_harmonic_mean_speedup_mixed(self):
        # Equal +x and -x do not cancel exactly (harmonic, not arithmetic).
        value = harmonic_mean_speedup([10.0, -10.0])
        assert value < 0.0


class TestMedian:
    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(positive_floats, min_size=1, max_size=15))
    def test_median_within_range(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestConfidenceInterval:
    def test_known_two_sample_interval(self):
        # mean 10, stddev sqrt(2), t(df=1)=12.706 ->
        # half width = 12.706 * sqrt(2)/sqrt(2) = 12.706
        ci = confidence_interval([9.0, 11.0])
        assert ci.mean == pytest.approx(10.0)
        assert ci.n == 2
        assert ci.low == pytest.approx(10.0 - 12.706)
        assert ci.high == pytest.approx(10.0 + 12.706)

    def test_single_sample_is_maximally_uncertain(self):
        ci = confidence_interval([4.2])
        assert ci.mean == pytest.approx(4.2)
        assert ci.low == -math.inf
        assert ci.high == math.inf
        assert ci.n == 1

    def test_identical_samples_zero_width(self):
        ci = confidence_interval([7.0, 7.0, 7.0])
        assert ci.low == ci.high == ci.mean == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_large_sample_uses_normal_tail(self):
        values = [float(v % 7) for v in range(40)]
        ci = confidence_interval(values)
        expected_half = 1.960 * sample_stddev(values) / math.sqrt(len(values))
        assert ci.high - ci.mean == pytest.approx(expected_half)

    @given(st.lists(positive_floats, min_size=2, max_size=12))
    def test_interval_contains_mean(self, values):
        ci = confidence_interval(values)
        assert ci.low <= ci.mean <= ci.high


class TestRelativeCIWidth:
    def test_tight_cluster_is_small(self):
        assert relative_ci_width([100.0, 100.5, 99.5]) < 0.05

    def test_noisy_cluster_is_large(self):
        assert relative_ci_width([1.0, 10.0, -5.0]) > 1.0

    def test_single_sample_is_infinite(self):
        assert relative_ci_width([3.0]) == math.inf

    def test_zero_mean_nonzero_spread_is_infinite(self):
        assert relative_ci_width([-1.0, 1.0]) == math.inf

    def test_zero_mean_zero_spread_is_stable(self):
        # Identical samples are perfectly stable even at mean zero.
        assert relative_ci_width([0.0, 0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_ci_width([])


class TestMeanAndStddev:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stddev_known(self):
        assert sample_stddev([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))

    def test_stddev_needs_two(self):
        with pytest.raises(ValueError):
            sample_stddev([1.0])
