"""Statistics, symmetric eigensolver and matrix roots."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.errors import ValidationError
from acdkit.linalg import (
    default_ridge,
    eigh,
    generalized_eigh,
    inv_sqrt,
    mean_cov,
    sym_sqrt,
)


def _random_spd(rng, dim, spread=1.0):
    basis = rng.normal(size=(dim, dim))
    return basis @ basis.T + spread * np.eye(dim)


class TestMeanCov:
    def test_hand_example(self):
        stats = mean_cov(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert_allclose(stats.mean, [3.0, 4.0])
        assert_allclose(stats.cov, np.full((2, 2), 8.0 / 3.0))

    def test_degenerate_column(self):
        stats = mean_cov(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert_allclose(stats.mean, [0.0, 0.0])
        assert_allclose(stats.cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_population_normalization(self):
        # 1/M, not 1/(M-1): two symmetric points a distance d from the mean
        # give variance d^2, not 2 d^2.
        stats = mean_cov(np.array([[0.0], [4.0]]))
        assert_allclose(stats.cov, [[4.0]])

    def test_rejects_single_row(self):
        with pytest.raises(ValidationError, match="2 rows"):
            mean_cov(np.ones((1, 3)))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(40, 5))
        shuffled = m[rng.permutation(40)]
        base, perm = mean_cov(m), mean_cov(shuffled)
        assert_allclose(perm.mean, base.mean, atol=1e-12)
        assert_allclose(perm.cov, base.cov, atol=1e-12)

    def test_mean_shift_moves_only_the_mean(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(30, 4))
        shift = np.array([10.0, -3.0, 0.5, 100.0])
        base, moved = mean_cov(m), mean_cov(m + shift)
        assert_allclose(moved.mean, base.mean + shift, atol=1e-10)
        assert_allclose(moved.cov, base.cov, atol=1e-9)

    def test_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(20, 3))
        before = m.copy()
        mean_cov(m)
        assert_array_equal(m, before)

    @pytest.mark.parametrize("rows", [500, 2048, 2050], ids=["1-block", "2-blocks", "tail"])
    def test_blocked_moments_match_the_direct_two_pass_formula(self, rows):
        # 2050 rows make two 1024-row blocks, the last taking a 2-row tail.
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 6)) @ rng.normal(size=(6, 6)) + 3.0
        y = 0.8 * x + rng.normal(scale=0.2, size=(rows, 6)) - 1.0

        def direct(m, partner=None):
            centered = m - m.mean(axis=0)
            cov = centered.T @ centered / rows
            if partner is None:
                return m.mean(axis=0), cov, None
            return m.mean(axis=0), cov, centered.T @ (partner - partner.mean(axis=0)) / rows

        def close(actual, expected):
            assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

        for stats, (mean, cov, cross) in [
            (mean_cov(x), direct(x)),
            (mean_cov(x, minus=y), direct(x - y)),
            (mean_cov(x, cross=y), direct(x, y)),
        ]:
            close(stats.mean, mean)
            close(stats.cov, cov)
            if cross is None:
                assert stats.cross is None
            else:
                close(stats.cross, cross)

    def test_plain_mean_is_the_column_mean_bit_for_bit(self):
        m = np.random.default_rng(8).normal(size=(2050, 4)) + 5.0
        assert mean_cov(m).mean.tobytes() == m.mean(axis=0).tobytes()

    @pytest.mark.parametrize("keyword", ["minus", "cross"])
    def test_rejects_a_partner_of_another_shape(self, keyword):
        with pytest.raises(ValidationError, match=keyword):
            mean_cov(np.ones((4, 3)), **{keyword: np.ones((4, 2))})


class TestEigh:
    def test_diagonal_matrix(self):
        values, vectors = eigh(np.diag([3.0, 2.0]))
        assert_allclose(values, [2.0, 3.0])
        assert_allclose(np.abs(vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_identity(self):
        values, vectors = eigh(np.eye(3))
        assert_allclose(values, [1.0, 1.0, 1.0])
        assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)

    def test_reconstructs_random_symmetric(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2.0
        values, vectors = eigh(a)
        assert_allclose(vectors @ np.diag(values) @ vectors.T, a, atol=1e-8)
        assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-10)

    def test_values_ascend(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 9))
        values, _ = eigh((a + a.T) / 2.0)
        assert np.all(np.diff(values) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_reconstruction_across_sizes(self):
        rng = np.random.default_rng(10)
        for dim in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            a = rng.normal(size=(dim, dim))
            a = (a + a.T) / 2.0
            values, vectors = eigh(a)
            scale = max(np.abs(a).max(), 1.0)
            assert_allclose(vectors @ np.diag(values) @ vectors.T, a, atol=1e-8 * scale)
            assert_allclose(vectors.T @ vectors, np.eye(dim), atol=1e-9)

    def test_paper_band_count_values_signs_and_reruns(self):
        # Q = 127 is the band count of the paper's scenes.
        rng = np.random.default_rng(127)
        a = _random_spd(rng, 127)
        values, vectors = eigh(a)
        expected = np.linalg.eigvalsh(a)
        assert_allclose(values, expected, rtol=1e-10, atol=0.0)
        anchor = np.abs(vectors).argmax(axis=0)
        assert np.all(vectors[anchor, np.arange(127)] > 0)
        again_values, again_vectors = eigh(a)
        assert values.tobytes() == again_values.tobytes()
        assert vectors.tobytes() == again_vectors.tobytes()


class TestInvSqrt:
    def test_diagonal_example(self):
        assert_allclose(inv_sqrt(np.diag([4.0, 9.0]), ridge=0.0), np.diag([0.5, 1.0 / 3.0]))

    def test_sandwich_recovers_identity(self):
        rng = np.random.default_rng(12)
        a = _random_spd(rng, 5)
        s = inv_sqrt(a, ridge=0.0)
        assert_allclose(s @ a @ s, np.eye(5), atol=1e-6)

    def test_sandwich_across_sizes(self):
        rng = np.random.default_rng(14)
        for dim in (1, 3, 7, 16, 32):
            a = _random_spd(rng, dim, spread=0.5)
            s = inv_sqrt(a, ridge=0.0)
            assert_allclose(s @ a @ s, np.eye(dim), atol=1e-6)

    def test_ridge_regularizes_singular_input(self):
        # Rank-1 matrix: exact inverse root does not exist; the ridge keeps
        # the result finite and symmetric.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = inv_sqrt(a, ridge=1e-3)
        assert np.all(np.isfinite(s))
        assert_allclose(s, s.T, atol=1e-12)

    def test_sym_sqrt_squares_back(self):
        rng = np.random.default_rng(16)
        a = _random_spd(rng, 6)
        root = sym_sqrt(a)
        assert_allclose(root @ root, a, atol=1e-8)


class TestGeneralizedEigh:
    def test_identity_b_reduces_to_eigh(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2.0
        plain_values, _ = eigh(a)
        gen_values, _ = generalized_eigh(a, np.eye(5), ridge=0.0)
        assert_allclose(gen_values, plain_values, atol=1e-9)

    def test_equal_matrices_give_unit_eigenvalues(self):
        rng = np.random.default_rng(20)
        a = _random_spd(rng, 4)
        values, _ = generalized_eigh(a, a, ridge=0.0)
        assert_allclose(values, np.ones(4), atol=1e-8)

    def test_definition_residual(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2.0
        b = _random_spd(rng, 6)
        values, vectors = generalized_eigh(a, b, ridge=0.0)
        for i in range(6):
            residual = a @ vectors[:, i] - values[i] * b @ vectors[:, i]
            assert np.linalg.norm(residual) < 1e-6

    def test_b_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(24)
        a = _random_spd(rng, 5)
        b = _random_spd(rng, 5)
        _, vectors = generalized_eigh(a, b, ridge=0.0)
        assert_allclose(vectors.T @ b @ vectors, np.eye(5), atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="differ"):
            generalized_eigh(np.eye(3), np.eye(4))


class TestDefaultRidge:
    def test_trace_scaling(self):
        assert default_ridge(np.diag([2.0, 4.0])) == pytest.approx(1e-6 * 3.0)

    def test_none_resolves_to_default(self):
        # Omitting the ridge on a singular matrix still yields a finite
        # inverse root because the trace-scaled default regularizes it.
        root = inv_sqrt(np.diag([1.0, 0.0]))
        assert np.all(np.isfinite(root))

    @pytest.mark.parametrize(
        "ridge", [-1e-3, np.inf, np.nan, True], ids=["negative", "inf", "nan", "bool"]
    )
    @pytest.mark.parametrize("solve", [lambda r: inv_sqrt(np.eye(2), r)], ids=["inv_sqrt"])
    def test_out_of_range_ridge_rejected(self, solve, ridge):
        # Checked before any arithmetic: a negative ridge would regularise by -|ridge| I.
        with pytest.raises(ValidationError, match="ridge must be"):
            solve(ridge)
