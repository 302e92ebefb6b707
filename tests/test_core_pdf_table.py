"""Unit tests for the PDF Table and the calibration phase."""

import numpy as np
import pytest

from repro.core.calibration import build_pdf_table
from repro.core.pdf_table import (
    UNIFORM_FLOOR_WEIGHT,
    DistanceDistribution,
    PdfTable,
)
from repro.net.phy import ReceiverModel
from repro.sim.rng import RandomStreams


class TestDistanceDistribution:
    def test_gaussian_pdf_peaks_at_mean(self):
        dist = DistanceDistribution.gaussian(20.0, 3.0, 180.0)
        xs = np.linspace(0, 180, 361)
        ys = dist.pdf(xs)
        assert xs[int(np.argmax(ys))] == pytest.approx(20.0, abs=0.5)

    def test_pdf_strictly_positive_on_support(self):
        dist = DistanceDistribution.gaussian(20.0, 1.0, 180.0)
        ys = dist.pdf(np.linspace(0, 180, 100))
        assert np.all(ys > 0)

    def test_uniform_floor_level(self):
        dist = DistanceDistribution.gaussian(20.0, 1.0, 180.0)
        far_away = dist.pdf(np.array([179.0]))[0]
        assert far_away == pytest.approx(
            UNIFORM_FLOOR_WEIGHT / 180.0, rel=1e-6
        )

    def test_gaussian_integrates_to_about_one(self):
        dist = DistanceDistribution.gaussian(50.0, 5.0, 180.0)
        xs = np.linspace(0, 180, 20000)
        integral = np.trapezoid(dist.pdf(xs), xs)
        assert integral == pytest.approx(1.0, rel=0.02)

    def test_narrow_sigma_clamped(self):
        dist = DistanceDistribution.gaussian(10.0, 0.0, 180.0)
        ys = dist.pdf(np.array([10.0]))
        assert np.isfinite(ys[0])

    def test_fit_near_samples_is_gaussian(self):
        rng = RandomStreams(1).get("x")
        samples = rng.normal(15.0, 2.0, size=500)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        assert dist.is_gaussian
        assert dist.mean_m == pytest.approx(15.0, abs=0.5)
        assert dist.std_m == pytest.approx(2.0, abs=0.5)

    def test_fit_far_samples_is_histogram(self):
        rng = RandomStreams(1).get("x")
        samples = rng.uniform(60.0, 120.0, size=500)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        assert not dist.is_gaussian
        assert dist.n_samples == 500

    def test_histogram_pdf_matches_sample_region(self):
        rng = RandomStreams(1).get("x")
        samples = rng.uniform(60.0, 120.0, size=2000)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        inside = dist.pdf(np.array([90.0]))[0]
        outside = dist.pdf(np.array([30.0]))[0]
        assert inside > 5 * outside

    def test_histogram_integrates_to_about_one(self):
        rng = RandomStreams(2).get("x")
        samples = rng.uniform(50.0, 150.0, size=5000)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        xs = np.linspace(0, 180, 20000)
        assert np.trapezoid(dist.pdf(xs), xs) == pytest.approx(1.0, rel=0.03)

    def test_beyond_support_only_floor(self):
        rng = RandomStreams(2).get("x")
        samples = rng.uniform(50.0, 150.0, size=1000)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        val = dist.pdf(np.array([250.0]))[0]
        assert val == pytest.approx(UNIFORM_FLOOR_WEIGHT / 180.0, rel=1e-6)

    def test_out_buffer_reused(self):
        dist = DistanceDistribution.gaussian(20.0, 3.0, 180.0)
        xs = np.linspace(0, 180, 50)
        buf = np.empty(50)
        result = dist.pdf(xs, out=buf)
        assert result is buf
        expected = dist.pdf(xs)
        np.testing.assert_allclose(result, expected)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            DistanceDistribution.from_samples(np.array([]), 180.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            DistanceDistribution.gaussian(10.0, -1.0, 180.0)


class TestPdfTable:
    def make_table(self):
        bins = {
            -50: DistanceDistribution.gaussian(5.0, 1.0, 180.0),
            -70: DistanceDistribution.gaussian(20.0, 4.0, 180.0),
            -85: DistanceDistribution.gaussian(60.0, 15.0, 180.0),
        }
        return PdfTable(bins, support_max_m=180.0)

    def test_exact_bin_lookup(self):
        table = self.make_table()
        assert table.bin_for(-70.0).mean_m == pytest.approx(20.0)

    def test_nearest_bin_snapping(self):
        table = self.make_table()
        assert table.bin_for(-68.0).mean_m == pytest.approx(20.0)
        assert table.bin_for(-79.0).mean_m == pytest.approx(60.0)

    def test_clamping_beyond_edges(self):
        table = self.make_table()
        assert table.bin_for(-120.0).mean_m == pytest.approx(60.0)
        assert table.bin_for(-10.0).mean_m == pytest.approx(5.0)

    def test_rssi_range(self):
        assert self.make_table().rssi_range == (-85, -50)

    def test_expected_distance_monotone(self):
        table = self.make_table()
        assert (
            table.expected_distance(-50.0)
            < table.expected_distance(-70.0)
            < table.expected_distance(-85.0)
        )

    def test_items_in_rssi_order(self):
        keys = [k for k, _ in self.make_table().items()]
        assert keys == sorted(keys)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            PdfTable({}, support_max_m=180.0)

    def test_bad_support_rejected(self):
        bins = {-50: DistanceDistribution.gaussian(5.0, 1.0, 180.0)}
        with pytest.raises(ValueError):
            PdfTable(bins, support_max_m=0.0)


class TestCalibration:
    def test_builds_populated_table(self, pdf_table):
        assert pdf_table.n_bins > 20

    def test_near_bins_gaussian_far_bins_not(self, pdf_table):
        """The paper's Figure 1 dichotomy: Gaussian to ~40 m, not beyond."""
        near = pdf_table.bin_for(-52.0)
        far = pdf_table.bin_for(-88.0)
        assert near.is_gaussian
        assert near.mean_m < 40.0
        assert not far.is_gaussian
        assert far.mean_m > 40.0

    def test_stronger_rssi_means_shorter_distance(self, pdf_table):
        distances = [
            pdf_table.expected_distance(rssi) for rssi in (-45, -60, -75)
        ]
        assert distances == sorted(distances)

    def test_result_provenance(self, default_path_loss):
        result = build_pdf_table(
            default_path_loss,
            RandomStreams(9).get("cal"),
            n_samples=20_000,
        )
        assert result.n_samples_drawn == 20_000
        assert 0 < result.n_samples_decodable <= 20_000
        assert result.n_gaussian_bins > 0
        assert result.n_histogram_bins > 0
        assert 0.0 < result.gaussian_fraction < 1.0

    def test_sensitivity_gates_samples(self, default_path_loss):
        """A deaf receiver can calibrate only the near bins."""
        deaf = ReceiverModel(sensitivity_dbm=-70.0, carrier_sense_dbm=-70.0)
        result = build_pdf_table(
            default_path_loss,
            RandomStreams(9).get("cal"),
            n_samples=30_000,
            receiver=deaf,
        )
        low, high = result.table.rssi_range
        assert low >= -70

    def test_impossible_sensitivity_raises(self, default_path_loss):
        impossible = ReceiverModel(
            sensitivity_dbm=0.0, carrier_sense_dbm=-1.0
        )
        with pytest.raises(ValueError):
            build_pdf_table(
                default_path_loss,
                RandomStreams(9).get("cal"),
                n_samples=5_000,
                receiver=impossible,
            )

    def test_invalid_arguments(self, default_path_loss):
        rng = RandomStreams(9).get("cal")
        with pytest.raises(ValueError):
            build_pdf_table(default_path_loss, rng, n_samples=0)
        with pytest.raises(ValueError):
            build_pdf_table(default_path_loss, rng, max_distance_m=0.5)

    def test_deterministic_given_seed(self, default_path_loss):
        r1 = build_pdf_table(
            default_path_loss, RandomStreams(5).get("cal"), n_samples=10_000
        )
        r2 = build_pdf_table(
            default_path_loss, RandomStreams(5).get("cal"), n_samples=10_000
        )
        assert r1.table.rssi_range == r2.table.rssi_range
        assert r1.n_samples_decodable == r2.n_samples_decodable
