"""Tests for the multi-seed analysis package."""

import numpy as np
import pytest

from repro.analysis.seeds import compare_scenarios, run_seed_sweep
from repro.analysis.stats import mean_confidence_interval, welch_t_test
from repro.core.config import CoCoAConfig, LocalizationMode
from repro.experiments.runner import SharedCalibration


class TestConfidenceInterval:
    def test_basic_interval(self):
        ci = mean_confidence_interval([10.0, 12.0, 11.0, 9.0, 13.0])
        assert ci.mean == pytest.approx(11.0)
        assert ci.low < 11.0 < ci.high
        assert ci.contains(11.0)
        assert ci.n == 5

    def test_tighter_with_more_samples(self):
        rng = np.random.default_rng(1)
        few = mean_confidence_interval(rng.normal(10, 2, size=5))
        many = mean_confidence_interval(rng.normal(10, 2, size=100))
        assert many.half_width < few.half_width

    def test_zero_variance(self):
        ci = mean_confidence_interval([5.0, 5.0, 5.0])
        assert ci.low == ci.high == ci.mean == 5.0

    def test_higher_confidence_is_wider(self):
        data = [1.0, 2.0, 3.0, 4.0]
        narrow = mean_confidence_interval(data, confidence=0.80)
        wide = mean_confidence_interval(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.0)

    def test_str_format(self):
        text = str(mean_confidence_interval([10.0, 12.0]))
        assert "+/-" in text and "n=2" in text


class TestWelch:
    def test_distinguishes_different_means(self):
        rng = np.random.default_rng(2)
        a = rng.normal(10.0, 1.0, size=20)
        b = rng.normal(15.0, 1.0, size=20)
        t_stat, p_value = welch_t_test(a, b)
        assert p_value < 0.001
        assert t_stat < 0

    def test_same_distribution_large_p(self):
        rng = np.random.default_rng(3)
        a = rng.normal(10.0, 1.0, size=20)
        b = rng.normal(10.0, 1.0, size=20)
        _, p_value = welch_t_test(a, b)
        assert p_value > 0.01

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [2.0, 3.0])


def sweep_config(**overrides):
    defaults = dict(
        n_robots=14,
        n_anchors=7,
        beacon_period_s=30.0,
        duration_s=95.0,
        calibration_samples=30_000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


class TestSeedSweep:
    @pytest.fixture(scope="class")
    def cal(self):
        return SharedCalibration()

    def test_sweep_aggregates(self, cal):
        result = run_seed_sweep(
            sweep_config(), seeds=(1, 2, 3), calibration=cal
        )
        assert len(result.error_time_averages_m) == 3
        assert len(result.energy_totals_j) == 3
        assert result.error_ci.n == 3
        assert result.best_seed_error_m <= result.error_ci.mean
        assert result.worst_seed_error_m >= result.error_ci.mean
        assert result.relative_spread >= 0.0

    def test_seeds_produce_different_worlds(self, cal):
        result = run_seed_sweep(
            sweep_config(), seeds=(1, 2, 3), calibration=cal
        )
        assert len(set(result.error_time_averages_m)) == 3

    def test_requires_two_seeds(self, cal):
        with pytest.raises(ValueError):
            run_seed_sweep(sweep_config(), seeds=(1,), calibration=cal)

    def test_compare_scenarios(self, cal):
        cocoa = run_seed_sweep(
            sweep_config(), seeds=(1, 2, 3), calibration=cal
        )
        rf = run_seed_sweep(
            sweep_config(localization_mode=LocalizationMode.RF_ONLY),
            seeds=(1, 2, 3),
            calibration=cal,
        )
        comparison = compare_scenarios(cocoa, rf)
        # CoCoA is more accurate than RF-only on average.
        assert comparison["mean_difference_m"] < 0
        assert 0.0 <= comparison["p_value"] <= 1.0
