"""Linear change detectors: Diff-RX, Chronochrome, Covariance Equalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.acda import loss_map
from acdkit.baselines import (
    LinearPredictor,
    baseline_map,
    diff_rx,
    fit_cc,
    fit_ce,
    run_baseline,
)
from acdkit.core import HyperCube
from acdkit.errors import ValidationError
from acdkit.linalg import inv_sqrt


def _correlated_pair(rng, rows, bands, jitter=0.3):
    """Two acquisitions sharing structure: y is a linear mix of x plus noise."""
    x = rng.normal(size=(rows, bands)) @ rng.normal(size=(bands, bands))
    mix = np.eye(bands) + 0.2 * rng.normal(size=(bands, bands))
    y = x @ mix.T + jitter * rng.normal(size=(rows, bands))
    return x, y


def _population_cov(m):
    centered = m - m.mean(axis=0)
    return centered.T @ centered / m.shape[0]


class TestDiffRx:
    def test_identical_inputs_score_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(48, 5))
        scores = diff_rx(x, x.copy(), (6, 8))
        assert_array_equal(scores.values, np.zeros((6, 8)))

    def test_gaussian_differences_average_near_band_count(self):
        # Mahalanobis scores of Gaussian differences follow chi-square(Q);
        # the sample mean over many pixels should sit near Q = 2.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2000, 2))
        y = x - rng.normal(size=(2000, 2))  # pure Gaussian difference
        scores = diff_rx(x, y, (40, 50))
        assert abs(scores.values.mean() - 2.0) < 0.2

    def test_constant_difference_offset_is_removed(self):
        rng = np.random.default_rng(7)
        x, y = _correlated_pair(rng, 60, 4)
        base = diff_rx(x, y, (6, 10), ridge=0.0)
        shifted = diff_rx(x + np.array([1.0, -2.0, 0.5, 3.0]), y, (6, 10), ridge=0.0)
        assert_allclose(shifted.values, base.values, rtol=1e-9, atol=1e-9)

    def test_invariant_under_shared_invertible_transform(self):
        rng = np.random.default_rng(9)
        x, y = _correlated_pair(rng, 200, 4)
        base = diff_rx(x, y, (10, 20), ridge=0.0).values
        for _ in range(5):
            transform = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            moved = diff_rx(x @ transform.T, y @ transform.T, (10, 20), ridge=0.0).values
            assert_allclose(moved, base, rtol=1e-6, atol=1e-6)

    def test_scores_are_nonnegative(self):
        rng = np.random.default_rng(11)
        x, y = _correlated_pair(rng, 100, 3)
        assert diff_rx(x, y, (10, 10)).values.min() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="cover"):
            diff_rx(np.ones((10, 2)), np.zeros((10, 2)), (3, 3))


class TestFitCc:
    def test_recovers_exact_affine_relation(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 5))
        y = 2.0 * x + np.array([1.0, -1.0, 0.5, 0.0, 3.0])
        pred = fit_cc(x, y, ridge=0.0)
        residual = np.linalg.norm(pred.predict(x) - y)
        assert residual < 1e-8 * np.linalg.norm(y)

    def test_identity_data_gives_identity_gain(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(400, 4))
        pred = fit_cc(x, x.copy(), ridge=0.0)
        assert_allclose(pred.gain, np.eye(4), atol=1e-6)

    def test_beats_mean_only_predictor(self):
        rng = np.random.default_rng(19)
        x, y = _correlated_pair(rng, 250, 4)
        pred = fit_cc(x, y)
        fitted = float(np.sum((pred.predict(x) - y) ** 2))
        mean_only = float(np.sum((y.mean(axis=0) - y) ** 2))
        assert fitted <= mean_only

    def test_no_random_perturbation_beats_least_squares(self):
        rng = np.random.default_rng(23)
        x, y = _correlated_pair(rng, 300, 4)
        pred = fit_cc(x, y, ridge=0.0)
        best = float(np.sum((pred.predict(x) - y) ** 2))
        for _ in range(100):
            noisy = LinearPredictor(
                pred.gain + rng.normal(scale=1e-3, size=pred.gain.shape),
                pred.mean_in,
                pred.mean_out,
            )
            perturbed = float(np.sum((noisy.predict(x) - y) ** 2))
            assert perturbed >= best - 1e-9 * best


class TestFitCe:
    def test_identity_data(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(300, 4))
        pred = fit_ce(x, x.copy(), ridge=0.0)
        assert_allclose(pred.gain, np.eye(4), atol=1e-6)
        assert np.linalg.norm(pred.predict(x) - x) < 1e-6 * np.linalg.norm(x)

    def test_whitened_input_reproduces_label_covariance(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(500, 3)) @ rng.normal(size=(3, 3))
        white = (raw - raw.mean(axis=0)) @ inv_sqrt(_population_cov(raw), ridge=0.0)
        y = rng.normal(size=(500, 3)) @ (rng.normal(size=(3, 3)) + 2.0 * np.eye(3))
        pred = fit_ce(white, y, ridge=0.0)
        cov_pred = _population_cov(pred.predict(white))
        assert_allclose(cov_pred, _population_cov(y), atol=1e-6)

    def test_gain_invariant_under_pixel_permutation(self):
        rng = np.random.default_rng(37)
        x, y = _correlated_pair(rng, 150, 4)
        perm = rng.permutation(150)
        base = fit_ce(x, y)
        shuffled = fit_ce(x[perm], y[perm])
        assert_allclose(shuffled.gain, base.gain, atol=1e-10)

    def test_covariance_matching_at_scale(self):
        rng = np.random.default_rng(41)
        q = 6
        x = rng.normal(size=(50 * q, q)) @ rng.normal(size=(q, q))
        y = rng.normal(size=(50 * q, q)) @ rng.normal(size=(q, q))
        cov_y = _population_cov(y)

        def rel_error(ridge):
            pred = fit_ce(x, y, ridge=ridge)
            cov_pred = _population_cov(pred.predict(x))
            return np.linalg.norm(cov_pred - cov_y) / np.linalg.norm(cov_y)

        assert rel_error(0.0) < 1e-4
        # The default ridge trades a little equalization accuracy for stability.
        assert rel_error(None) < 1e-2


class TestBaselineMap:
    def test_perfect_predictor_scores_zero(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(30, 3))
        pred = LinearPredictor(np.eye(3), np.zeros(3), np.zeros(3))
        assert_array_equal(baseline_map(pred, x, x.copy(), (5, 6)).values, np.zeros((5, 6)))

    def test_matches_shared_scoring_rule_exactly(self):
        rng = np.random.default_rng(47)
        x, y = _correlated_pair(rng, 64, 4)
        pred = fit_cc(x, y)
        via_baseline = baseline_map(pred, x, y, (8, 8)).values
        via_loss_map = loss_map(pred.predict(x), y, (8, 8)).values
        assert_array_equal(via_baseline, via_loss_map)


class TestRunBaseline:
    def _cubes(self, rng, h=8, w=8, q=4, identical=False):
        x = rng.normal(size=(h, w, q)).astype(np.float32)
        if identical:
            return HyperCube(x), HyperCube(x.copy())
        mix = np.eye(q) + 0.15 * rng.normal(size=(q, q))
        y = (x.reshape(-1, q) @ mix.T + 0.1 * rng.normal(size=(h * w, q))).reshape(h, w, q)
        return HyperCube(x), HyperCube(y.astype(np.float32))

    def test_identical_cubes_score_near_zero(self):
        rng = np.random.default_rng(53)
        x, y = self._cubes(rng, identical=True)
        for kind in ("cc", "ce"):
            fused = run_baseline(kind, x, y, ridge=0.0)
            assert fused.values.max() < 1e-18

    def test_fused_below_both_directions(self):
        rng = np.random.default_rng(59)
        x_cube, y_cube = self._cubes(rng)
        from acdkit.core import flatten

        x, y = flatten(x_cube), flatten(y_cube)
        for kind, fit in (("cc", fit_cc), ("ce", fit_ce)):
            fused = run_baseline(kind, x_cube, y_cube).values
            forward = baseline_map(fit(x, y), x, y, (8, 8)).values
            backward = baseline_map(fit(y, x), y, x, (8, 8)).values
            assert np.all(fused <= forward)
            assert np.all(fused <= backward)
            assert_array_equal(fused, np.minimum(forward, backward))

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(61)
        x, y = self._cubes(rng)
        with pytest.raises(ValidationError, match="kind"):
            run_baseline("rx", x, y)


class TestLinearPredictorValidation:
    def test_rejects_non_square_gain(self):
        with pytest.raises(ValidationError, match="square"):
            LinearPredictor(np.ones((2, 3)), np.zeros(3), np.zeros(2))

    def test_predict_dimension_mismatch(self):
        pred = LinearPredictor(np.eye(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValidationError, match="match"):
            pred.predict(np.ones((5, 4)))
