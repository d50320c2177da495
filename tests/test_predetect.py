"""Slow-feature pre-detection, scalar K-means, and training-pair selection."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.baselines import diff_rx
from acdkit.core import IntensityMap
from acdkit.errors import ValidationError
from acdkit.predetect import (
    UsfaModel,
    default_sample_count,
    kmeans_1d,
    select_samples,
    usfa_fit,
    usfa_intensity,
)


def _population_cov(m):
    centered = m - m.mean(axis=0)
    return centered.T @ centered / m.shape[0]


class TestUsfaFit:
    def test_identical_images(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 4))
        model = usfa_fit(x, x.copy())
        assert not model.fallback
        assert model.projection.shape[0] == 4  # every eigenvalue is 0 < 1
        assert_allclose(model.eigenvalues, np.zeros(4), atol=1e-10)
        scores = usfa_intensity(model, x, x.copy(), (10, 10))
        assert_array_equal(scores.values, np.zeros((10, 10)))

    def test_constant_offset_matches_identity_case(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 3))
        y = x + np.array([5.0, -2.0, 0.25])
        model = usfa_fit(x, y)
        assert_allclose(model.eigenvalues, np.zeros(3), atol=1e-10)
        scores = usfa_intensity(model, x, y, (8, 10))
        assert_allclose(scores.values, np.zeros((8, 10)), atol=1e-12)

    def test_eigenpair_residuals_on_single_change_band(self):
        rng = np.random.default_rng(11)
        shared = rng.normal(size=(400, 4))
        x = shared.copy()
        y = shared.copy()
        y[:, 2] += rng.normal(scale=2.0, size=400)
        model = usfa_fit(x, y, ridge=0.0)
        slow = _population_cov(x - y)
        both = 0.5 * (_population_cov(x) + _population_cov(y))
        for k in range(model.projection.shape[0]):
            w = model.projection[k]
            residual = slow @ w - model.eigenvalues[k] * both @ w
            assert np.linalg.norm(residual) < 1e-6
        # The pure-change direction varies faster between images than within
        # (lambda ~ 4/3 > 1), so only the three shared directions remain.
        assert not model.fallback
        assert model.projection.shape[0] == 3

    def test_fallback_keeps_single_slowest(self):
        # Make every between-image difference faster than the within-image
        # spread: y is an independent draw scaled up, so all lambda >= 1.
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 3))
        y = rng.normal(size=(300, 3)) * 2.0
        model = usfa_fit(x, y, ridge=0.0)
        assert model.fallback
        assert model.projection.shape[0] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            usfa_fit(np.ones((10, 3)), np.ones((10, 4)))

    def test_model_rejects_descending_eigenvalues(self):
        with pytest.raises(ValidationError, match="ascending"):
            UsfaModel(
                projection=np.eye(2),
                eigenvalues=np.array([0.5, 0.1]),
                mean=np.zeros(2),
            )

    def test_model_rejects_fast_eigenvalues_without_fallback(self):
        with pytest.raises(ValidationError, match="lambda < 1"):
            UsfaModel(
                projection=np.eye(2),
                eigenvalues=np.array([0.5, 1.5]),
                mean=np.zeros(2),
            )


class TestUsfaIntensity:
    def test_identical_inputs_score_exactly_zero(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 5))
        model = usfa_fit(x, x.copy())
        scores = usfa_intensity(model, x, x.copy(), (6, 10))
        assert np.all(scores.values == 0.0)

    def test_constant_shift_of_x_leaves_scores_unchanged(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(150, 3))
        y = x + rng.normal(scale=0.1, size=(150, 3))
        base = usfa_intensity(usfa_fit(x, y), x, y, (15, 10))
        shift = np.array([3.0, -7.0, 0.5])
        shifted = usfa_intensity(usfa_fit(x + shift, y), x + shift, y, (15, 10))
        assert_allclose(shifted.values, base.values, rtol=1e-6, atol=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(20, 4))
        y = x + rng.normal(scale=0.3, size=(20, 4))
        model = usfa_fit(x, y)
        scores = usfa_intensity(model, x, y, (4, 5)).values.ravel()
        for i in range(20):
            diff = (x[i] - y[i]) - model.mean
            total = 0.0
            for k in range(model.projection.shape[0]):
                projected = float(model.projection[k] @ diff)
                total += projected**2 / max(model.eigenvalues[k], 1e-12)
            assert scores[i] == pytest.approx(total, rel=1e-12)

    def test_every_component_kept_scores_diff_rx(self):
        # With all Q generalized components, V diag(1/lambda) V^T = cov(x - y)^-1,
        # so the slow-feature score is the Diff-RX score.
        rng = np.random.default_rng(27)
        x = rng.normal(size=(200, 5)) @ rng.normal(size=(5, 5))
        y = x + rng.normal(scale=0.3, size=(200, 5))
        model = usfa_fit(x, y, ridge=0.0)
        assert model.projection.shape[0] == 5 and not model.fallback
        scores = usfa_intensity(model, x, y, (10, 20)).values
        assert_allclose(scores, diff_rx(x, y, (10, 20), ridge=0.0).values, rtol=1e-12)

    def test_band_mismatch(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(20, 4))
        model = usfa_fit(x, x)
        with pytest.raises(ValidationError, match="bands"):
            usfa_intensity(model, np.ones((20, 3)), np.ones((20, 3)), (4, 5))

    def test_shape_coverage_mismatch(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(20, 4))
        model = usfa_fit(x, x)
        with pytest.raises(ValidationError, match="cover"):
            usfa_intensity(model, x, x, (3, 5))

    def test_row_blocks_match_one_whole_matrix_pass(self, monkeypatch):
        # 30 rows in blocks of 7: the last block takes the remainder, 9 rows.
        rng = np.random.default_rng(33)
        x = rng.uniform(0.0, 1.0, size=(30, 6))
        y = x + rng.normal(scale=0.1, size=(30, 6))
        model = usfa_fit(x, y)
        assert model.projection.shape[0] > 1
        whitener = model.projection.T / np.sqrt(np.maximum(model.eigenvalues, 1e-12))
        white = ((x - y) - model.mean) @ whitener
        whole = np.einsum("ij,ij->i", white, white)
        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        blocked = usfa_intensity(model, x, y, (5, 6)).values.ravel()
        assert blocked.tobytes() == whole.tobytes()


class TestKmeans1d:
    def test_three_separated_pairs(self):
        values = np.array([0.0, 1.0, 10.0, 11.0, 100.0, 101.0])
        result = kmeans_1d(values, k=3)
        assert_allclose(result.centers, [0.5, 10.5, 100.5])
        assert_array_equal(result.assignments, [0, 0, 1, 1, 2, 2])

    def test_too_few_distinct_values(self):
        with pytest.raises(ValidationError, match="distinct"):
            kmeans_1d(np.array([5.0, 5.0, 5.0, 7.0]), k=3)

    def test_partition_survives_input_shuffling(self):
        rng = np.random.default_rng(37)
        values = np.concatenate(
            [rng.normal(0, 0.5, 40), rng.normal(10, 0.5, 40), rng.normal(50, 0.5, 40)]
        )
        perm = rng.permutation(values.size)
        base = kmeans_1d(values, k=3)
        shuffled = kmeans_1d(values[perm], k=3)
        assert_allclose(shuffled.centers, base.centers)
        assert_array_equal(shuffled.assignments, base.assignments[perm])

    def test_single_cluster_center_is_mean(self):
        values = np.array([1.0, 2.0, 6.0])
        result = kmeans_1d(values, k=1)
        assert_allclose(result.centers, [3.0])

    def test_fixed_point_assigns_nearest_center(self):
        rng = np.random.default_rng(41)
        for trial in range(10):
            values = rng.normal(size=50) * rng.uniform(1, 20)
            result = kmeans_1d(values, k=3)
            distances = np.abs(values[:, np.newaxis] - result.centers)
            chosen = distances[np.arange(50), result.assignments]
            assert np.all(chosen <= distances.min(axis=1) + 1e-12)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            values = rng.normal(size=int(rng.integers(10, 200)))
            result = kmeans_1d(values, k=3)
            assert set(np.unique(result.assignments)) == {0, 1, 2}

    def test_centers_ascend(self):
        rng = np.random.default_rng(47)
        result = kmeans_1d(rng.normal(size=100), k=4)
        assert np.all(np.diff(result.centers) > 0)

    def test_reseeding_never_empties_a_passed_cluster(self):
        # Quantile seeding leaves cluster 2 empty and 0 alone in cluster 0.
        # Refilling cluster 2 must not take 0, the farthest value: cluster 0,
        # already passed, would stay empty and its mean would be NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans_1d(np.array([0.0, 7.0, 8.0, 8.0, 8.0]), 3)
        assert_array_equal(result.centers, [0.0, 7.0, 8.0])
        assert_array_equal(result.assignments, [0, 1, 2, 2, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            kmeans_1d(np.array([bad, 1.0, 2.0, 3.0]), 3)

    def test_ties_go_to_the_first_center(self):
        # The seeds are 1.5 and 4.5, so 3 is exactly as far from both; it joins
        # the first, as argmin's first-wins rule has it. Joining the second
        # would converge to [0, 0, 0, 1, 1, 1, 1].
        result = kmeans_1d(np.arange(7.0), 2)
        assert_array_equal(result.centers, [1.5, 5.0])
        assert_array_equal(result.assignments, [0, 0, 0, 0, 1, 1, 1])


class TestSelectSamples:
    def _pair(self, rng, pixels, bands=3):
        x = rng.normal(size=(pixels, bands))
        return x, x + rng.normal(scale=0.05, size=(pixels, bands))

    def test_low_intensity_pixels_only(self):
        rng = np.random.default_rng(53)
        x, y = self._pair(rng, 100)
        values = np.zeros(100)
        values[90:] = 100.0 + np.arange(10)
        intensity = IntensityMap(values.reshape(10, 10))
        samples = select_samples(x, y, intensity, count=50, seed=0)
        assert samples.size == 50
        assert np.all(values[samples.indices] == 0.0)

    def test_oversized_request_returns_whole_pool(self):
        rng = np.random.default_rng(59)
        x, y = self._pair(rng, 100)
        values = np.zeros(100)
        values[90:] = 100.0 + np.arange(10)
        intensity = IntensityMap(values.reshape(10, 10))
        samples = select_samples(x, y, intensity, count=500, seed=0)
        assert samples.size == 90

    def test_fixed_seed_reproduces_indices(self):
        rng = np.random.default_rng(61)
        x, y = self._pair(rng, 64)
        intensity = IntensityMap(np.abs(rng.normal(size=(8, 8))))
        a = select_samples(x, y, intensity, count=20, seed=9)
        b = select_samples(x, y, intensity, count=20, seed=9)
        assert_array_equal(a.indices, b.indices)
        assert_array_equal(a.inputs, b.inputs)

    def test_rows_stay_spatially_aligned(self):
        rng = np.random.default_rng(67)
        x, y = self._pair(rng, 144)
        intensity = IntensityMap(np.abs(rng.normal(size=(12, 12))))
        samples = select_samples(x, y, intensity, count=30, seed=1)
        assert_array_equal(samples.inputs, x[samples.indices])
        assert_array_equal(samples.labels, y[samples.indices])

    def test_count_must_be_positive(self):
        rng = np.random.default_rng(71)
        x, y = self._pair(rng, 16)
        intensity = IntensityMap(np.abs(rng.normal(size=(4, 4))))
        with pytest.raises(ValidationError, match=">= 1"):
            select_samples(x, y, intensity, count=0)

    def test_five_pixel_scene_clusters_without_warning(self):
        # The production path (k = 3) on the intensity of the k-means reseed case.
        x = np.arange(10.0).reshape(5, 2)
        intensity = IntensityMap(np.array([[0.0, 7.0, 8.0, 8.0, 8.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = select_samples(x, x + 1.0, intensity, count=1)
        assert_array_equal(samples.indices, [0])

    def test_intensity_size_mismatch(self):
        rng = np.random.default_rng(73)
        x, y = self._pair(rng, 16)
        intensity = IntensityMap(np.abs(rng.normal(size=(3, 4))))
        with pytest.raises(ValidationError, match="pixels"):
            select_samples(x, y, intensity, count=4)


class TestDefaultSampleCount:
    def test_six_percent_at_desk_scale(self):
        assert default_sample_count(100) == 6
        assert default_sample_count(64 * 64) == 246  # ceil(0.06 * 4096)

    def test_caps_at_ten_thousand(self):
        assert default_sample_count(1_000_000) == 10000

    def test_tiny_scene_rounds_up(self):
        assert default_sample_count(1) == 1

    def test_rejects_empty_scene(self):
        with pytest.raises(ValidationError):
            default_sample_count(0)
