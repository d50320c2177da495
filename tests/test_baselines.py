"""Linear change detectors: Diff-RX, Chronochrome, Covariance Equalization."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.baselines import (
    LinearPredictor,
    diff_rx,
    fit_cc,
    fit_ce,
    run_baseline,
)
from acdkit.core import HyperCube, _pixel_map, loss_map
from acdkit.errors import ValidationError
from acdkit.linalg import default_ridge, eigh, inv_sqrt, mean_cov


def _correlated_pair(rng, rows, bands, jitter=0.3):
    """Two acquisitions sharing structure: y is a linear mix of x plus noise."""
    x = rng.normal(size=(rows, bands)) @ rng.normal(size=(bands, bands))
    mix = np.eye(bands) + 0.2 * rng.normal(size=(bands, bands))
    y = x @ mix.T + jitter * rng.normal(size=(rows, bands))
    return x, y


def _exact_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination in exact rationals, rounded to float64 at the end."""
    n = a.shape[0]
    rows = [[Fraction(v) for v in a[i]] + [Fraction(v) for v in b[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[col])]
    return np.array([[float(v / rows[i][i]) for v in rows[i][n:]] for i in range(n)])


def _population_cov(m):
    centered = m - m.mean(axis=0)
    return centered.T @ centered / m.shape[0]


class TestDiffRx:
    def test_identical_inputs_score_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(48, 5))
        scores = diff_rx(x, x.copy(), (6, 8))
        assert_array_equal(scores.values, np.zeros((6, 8)))

    def test_exact_constant_difference_scores_zero(self):
        # Every value and every sum is exact in float32, so the difference is
        # exactly constant, its covariance is zero, and so is every score.
        rng = np.random.default_rng(4)
        x = rng.integers(-400, 400, size=(48, 5)) / 8.0
        y = x + np.array([0.5, -2.0, 0.25, 3.0, 1.0])
        scores = diff_rx(x, y, (6, 8))
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

    def test_row_blocks_match_one_whole_matrix_solve(self, monkeypatch):
        # 30 rows in blocks of 7: the last block takes the remainder, 9 rows.
        rng = np.random.default_rng(13)
        x, y = _correlated_pair(rng, 30, 5)
        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        stats = mean_cov(x, minus=y)
        white = ((x - y) - stats.mean) @ inv_sqrt(stats.cov)
        whole = np.einsum("ij,ij->i", white, white)
        rows = []

        def recording(score, count, shape):
            def counted(part):
                rows.append(part.stop - part.start)
                return score(part)

            return _pixel_map(counted, count, shape)

        monkeypatch.setattr("acdkit.linalg._pixel_map", recording)
        blocked = diff_rx(x, y, (5, 6)).values.ravel()
        assert rows == [7, 7, 7, 9]
        assert blocked.tobytes() == whole.tobytes()


class TestFitCc:
    def test_gain_matches_separately_centered_products_bit_for_bit(self):
        # x is centered once and used for both the covariance and the
        # cross-covariance; the gain comes from one eigendecomposition.
        rng = np.random.default_rng(15)
        x, y = _correlated_pair(rng, 50, 4)
        stats = mean_cov(x)
        cov_yx = ((x - stats.mean).T @ y / 50).T
        values, vectors = eigh(stats.cov)
        gain = (cov_yx @ vectors) / (values + default_ridge(stats.cov)) @ vectors.T
        assert fit_cc(x, y).gain.tobytes() == gain.tobytes()

    @pytest.mark.parametrize("ridge", [None, 0.0], ids=["default-ridge", "no-ridge"])
    def test_gain_is_accurate_on_an_ill_conditioned_covariance(self, ridge):
        # cov_xx has condition number about 1e8; the exact rational solve of
        # (cov_xx + ridge I) gain^T = cov_xy from the same moments is the
        # reference, and a backward-stable gain is within eps * cond of it.
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        x = (rng.normal(size=(400, 6)) * np.logspace(0, -4, 6)) @ basis.T + 0.5
        y = x @ rng.normal(size=(6, 6)) + rng.normal(scale=1e-3, size=(400, 6))
        stats = mean_cov(x, cross=y)
        shift = default_ridge(stats.cov) if ridge is None else ridge
        shifted = stats.cov + shift * np.eye(6)
        reference = _exact_solve(shifted, stats.cross).T
        error = np.abs(fit_cc(x, y, ridge).gain - reference).max() / np.abs(reference).max()
        assert error <= np.finfo(np.float64).eps * np.linalg.cond(shifted)

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


class TestLinearSolveReference:
    """The whitened forms agree with the textbook solve against (cov + ridge I)."""

    @staticmethod
    def _solve(cov, rhs):
        return np.linalg.solve(cov + default_ridge(cov) * np.eye(cov.shape[0]), rhs)

    @staticmethod
    def _well_conditioned_pair(rng, rows, bands):
        def mix():
            return np.eye(bands) + 0.2 * rng.normal(size=(bands, bands))

        x = rng.normal(size=(rows, bands)) @ mix()
        # y's offset makes fit_cc's uncentered cross-covariance cancel its mean.
        y = 3.0 + x @ mix().T + 0.5 * rng.normal(size=(rows, bands))
        return x, y

    def test_diff_rx_and_cc_gain_match_a_linear_solve(self):
        rng = np.random.default_rng(67)
        for bands in (2, 5, 9, 16):
            x, y = self._well_conditioned_pair(rng, 600, bands)
            stats = mean_cov(x - y)
            centered = (x - y) - stats.mean
            reference = np.einsum("ij,ji->i", centered, self._solve(stats.cov, centered.T))
            scores = diff_rx(x, y, (20, 30)).values.ravel()
            assert np.abs(scores - reference).max() <= 1e-12 * reference.max()

            stats_x = mean_cov(x)
            cov_xy = (x - stats_x.mean).T @ (y - y.mean(axis=0)) / 600
            reference = self._solve(stats_x.cov, cov_xy).T
            gain = fit_cc(x, y).gain
            assert np.abs(gain - reference).max() <= 1e-12 * np.abs(reference).max()


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
        assert_array_equal(loss_map(pred.predict, x, x.copy(), (5, 6)).values, np.zeros((5, 6)))

    def test_matches_shared_scoring_rule_exactly(self):
        rng = np.random.default_rng(47)
        x, y = _correlated_pair(rng, 64, 4)
        pred = fit_cc(x, y)
        via_loss_map = loss_map(pred.predict, x, y, (8, 8)).values
        assert_array_equal(via_loss_map.ravel(), np.mean((pred.predict(x) - y) ** 2, axis=1))


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
            forward = loss_map(fit(x, y).predict, x, y, (8, 8)).values
            backward = loss_map(fit(y, x).predict, y, x, (8, 8)).values
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
