"""Dual-predictor pipeline: training, prediction, loss maps, fusion, repeats."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.acda import (
    AcdaConfig,
    default_shape,
    fuse_min,
    loss_map,
    predict_image,
    prepare_samples,
    run_acda,
)
from acdkit.core import HyperCube, IntensityMap, flatten
from acdkit.errors import NumericalError, ValidationError
from acdkit.neural import (
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    derived_seed,
    forward_batch,
    init_params,
    train_lockstep,
)
from acdkit.synth import AnomalyRect, SceneSpec, generate

from helpers import assert_same_net, reference_train


def _sampled(img_in, img_out, count, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(img_in.shape[0], size=count, replace=False))
    return SampleSet(img_in[idx], img_out[idx], indices=idx)


def _small_cfg(bands, epochs=150):
    h1, h2 = (5, 3) if bands >= 6 else (3, 2)
    return AcdaConfig(
        shape=NetworkShape.bottleneck(bands, h1, h2),
        train=TrainConfig(
            epochs=epochs, batch_size=32, learning_rate=3e-3, l2_lambda=1e-4
        ),
        sample_count=200,
        repeats=1,
        base_seed=0,
    )


def _train_directions(samples, cfg, seeds):
    """Train predictors on `samples` as `run_acda` does, from one (2, S, Q) pool.

    Direction is set by the roles alone: the net of seeds[0] maps x rows to
    y rows, the net of seeds[1] (if given) y rows to x rows.
    """
    pair = np.stack([samples.inputs, samples.labels])
    roles = [(0, 1), (1, 0)][: len(seeds)]
    return train_lockstep(
        cfg.resolved_shape(pair.shape[2]), pair, pair, roles, seeds, cfg.train,
        [f"net {k}" for k in range(len(seeds))],
    )


class TestTrainPredictor:
    def test_autoencoder_convergence(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0.5, 1.5, size=(600, 6))
        samples = _sampled(img, img, 300)
        [(_, history)] = _train_directions(samples, _small_cfg(6), [0])
        assert history[-1] < 0.05 * history[0]

    def test_affine_labels_converge_below_label_variance(self):
        # Mixture-structured inputs (1-dof manifold in 6 bands) fit through
        # the bottleneck; full-rank noise would not be representable.
        rng = np.random.default_rng(7)
        ends = rng.uniform(0.2, 1.0, size=(2, 6))
        t = rng.uniform(0.0, 1.0, size=(1500, 1))
        x = t * ends[0] + (1 - t) * ends[1]
        gains = rng.uniform(0.8, 1.2, size=6)
        y = x * gains + rng.uniform(-0.1, 0.1, size=6)
        samples = _sampled(x, y, 500)
        cfg = _small_cfg(6, epochs=300)
        [(params, _)] = _train_directions(samples, cfg, [0])
        mse = float(np.mean(np.sum((predict_image(params, x) - y) ** 2, axis=1)))
        assert mse < 1e-3 * float(np.var(y, axis=0).sum())

    def test_argument_order_sets_direction(self):
        rng = np.random.default_rng(7)
        ends = rng.uniform(0.2, 1.0, size=(2, 6))
        t = rng.uniform(0.0, 1.0, size=(1500, 1))
        x = t * ends[0] + (1 - t) * ends[1]
        y = 0.7 * x + 0.2  # invertible per-band map
        samples = _sampled(x, y, 500)
        cfg = _small_cfg(6, epochs=400)
        (fwd, _), (bwd, _) = _train_directions(samples, cfg, [3, 4])
        fwd_mse = float(np.mean((predict_image(fwd, x) - y) ** 2))
        bwd_mse = float(np.mean((predict_image(bwd, y) - x) ** 2))
        assert fwd_mse < 1e-3
        assert bwd_mse < 1e-3


class TestPredictImage:
    def test_zero_net_predicts_zeros(self):
        params = MlpParams([np.zeros((4, 4))], [np.zeros(4)])
        out = predict_image(params, np.ones((12, 4)))
        assert_array_equal(out, np.zeros((12, 4)))

    def test_single_pixel_matches_forward(self):
        params = init_params(NetworkShape(5, (3,), 5), seed=3)
        spectrum = np.linspace(-1.0, 1.0, 5)[np.newaxis, :]
        out = predict_image(params, spectrum)
        single, _ = forward_batch(params, spectrum)
        assert_allclose(out, single, rtol=1e-15)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(13)
        params = init_params(NetworkShape(4, (6,), 4), seed=5)
        img = rng.normal(size=(30, 4))
        perm = rng.permutation(30)
        assert_array_equal(predict_image(params, img[perm]), predict_image(params, img)[perm])

    def test_dimension_mismatch(self):
        params = init_params(NetworkShape(4, (3,), 4), seed=7)
        with pytest.raises(ValidationError, match="input"):
            predict_image(params, np.ones((10, 5)))


class TestLossMap:
    def test_perfect_prediction_scores_zero(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(20, 3))
        assert_array_equal(loss_map(m, m.copy(), (4, 5)).values, np.zeros((4, 5)))

    def test_two_band_arithmetic(self):
        out = loss_map(np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]]), (1, 1))
        assert out.values[0, 0] == pytest.approx(2.0)  # ((0)^2 + (2)^2) / 2

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(19)
        predicted = rng.normal(size=(64, 4))
        expected = rng.normal(size=(64, 4))
        values = loss_map(predicted, expected, (8, 8)).values.ravel()
        for i in range(64):
            direct = sum((predicted[i, b] - expected[i, b]) ** 2 for b in range(4)) / 4.0
            assert values[i] == pytest.approx(direct, rel=1e-12)

    def test_shape_coverage_mismatch(self):
        with pytest.raises(ValidationError, match="cover"):
            loss_map(np.ones((10, 2)), np.ones((10, 2)), (3, 3))

    def test_matrix_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            loss_map(np.ones((10, 2)), np.ones((10, 3)), (2, 5))


class TestFuseMin:
    def test_picks_smaller_value(self):
        fused = fuse_min(IntensityMap(np.array([[0.5]])), IntensityMap(np.array([[0.2]])))
        assert_array_equal(fused.values, [[0.2]])

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        imap = IntensityMap(np.abs(rng.normal(size=(6, 6))))
        assert_array_equal(fuse_min(imap, imap).values, imap.values)

    def test_dominated_by_both_inputs(self):
        rng = np.random.default_rng(29)
        a = IntensityMap(np.abs(rng.normal(size=(10, 10))))
        b = IntensityMap(np.abs(rng.normal(size=(10, 10))))
        fused = fuse_min(a, b)
        assert np.all(fused.values <= a.values)
        assert np.all(fused.values <= b.values)
        assert_array_equal(fused.values, np.minimum(a.values, b.values))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            fuse_min(IntensityMap(np.zeros((2, 2))), IntensityMap(np.zeros((2, 3))))


class TestDefaultShape:
    def test_reference_band_count(self):
        shape = default_shape(127)
        assert shape.layer_dims == (127, 60, 40, 60, 127)

    def test_scaled_to_sixteen_bands(self):
        shape = default_shape(16)
        assert shape.layer_dims == (16, 8, 5, 8, 16)

    def test_tiny_band_count_still_compresses(self):
        shape = default_shape(4)
        assert shape.layer_dims == (4, 2, 1, 2, 4)

    def test_rejects_too_few_bands(self):
        with pytest.raises(ValidationError, match="bands"):
            default_shape(2)


class TestConfig:
    def test_rejects_non_bottleneck_shape(self):
        with pytest.raises(ValidationError, match="bottleneck"):
            AcdaConfig(shape=NetworkShape(8, (8, 4, 8), 8))

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValidationError, match="repeats"):
            AcdaConfig(repeats=0)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ValidationError, match="base_seed"):
            AcdaConfig(base_seed=-1)

    @pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("field", ["repeats", "sample_count", "base_seed"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            AcdaConfig(**{field: value})

    def test_resolved_shape_band_mismatch(self):
        cfg = AcdaConfig(shape=NetworkShape.bottleneck(8, 5, 3))
        with pytest.raises(ValidationError, match="bands"):
            cfg.resolved_shape(16)


def _scene(anomalies=(), seed=5, condition="affine", sigma=0.01, side=16, bands=8):
    return SceneSpec(
        height=side,
        width=side,
        bands=bands,
        n_endmembers=3,
        condition=condition,
        condition_strength=0.0 if condition == "identical" else 0.3,
        noise_sigma=sigma,
        anomalies=anomalies,
        seed=seed,
    )


def _explicit_samples(x_cube, y_cube, count, seed=0):
    fx, fy = flatten(x_cube), flatten(y_cube)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(fx.shape[0], size=count, replace=False))
    return SampleSet(fx[idx], fy[idx], indices=idx)


def _run_cfg(repeats=1, epochs=120, base_seed=0):
    return AcdaConfig(
        shape=NetworkShape.bottleneck(8, 5, 3),
        train=TrainConfig(epochs=epochs, batch_size=32, learning_rate=2e-3, l2_lambda=1e-4),
        sample_count=150,
        repeats=repeats,
        base_seed=base_seed,
    )


class TestRunAcda:
    def test_single_repeat_mean_equals_fused(self):
        x, y, _ = generate(_scene(seed=7))
        mean_map, runs = run_acda(x, y, _run_cfg(repeats=1, epochs=30))
        assert len(runs) == 1
        assert_array_equal(mean_map.values, runs[0].fused.values)

    def test_anomalies_raise_scores_at_anomaly_pixels(self):
        # Identical noiseless pair: the clean run's intensity is flat (no
        # contrast for pre-detection), so its training pixels are supplied
        # directly; the anomalous run exercises the full pipeline.
        rects = (AnomalyRect(3, 3, 2, 2), AnomalyRect(10, 9, 2, 2, "remove_t2"))
        clean_x, clean_y, _ = generate(_scene(seed=9, condition="identical", sigma=0.0))
        anom_x, anom_y, mask = generate(
            _scene(anomalies=rects, seed=9, condition="identical", sigma=0.0)
        )
        cfg = _run_cfg(repeats=2, epochs=150, base_seed=1)
        clean_map, _ = run_acda(
            clean_x,
            clean_y,
            cfg,
            samples=_explicit_samples(clean_x, clean_y, 150),
        )
        anom_map, _ = run_acda(anom_x, anom_y, cfg)
        where = mask.labels == 1
        assert anom_map.values[where].mean() > 3.0 * clean_map.values[where].mean()

    def test_identical_pair_raises_numerical_error(self):
        # A noise-free identical pair scores every pixel zero, so there is
        # nothing for the background clustering to separate.
        x, y, _ = generate(_scene(seed=9, condition="identical", sigma=0.0))
        with pytest.raises(NumericalError, match="no change structure"):
            run_acda(x, y, _run_cfg(repeats=1, epochs=5))

    def test_sequential_runs_are_bit_identical(self):
        x, y, _ = generate(_scene(seed=11))
        cfg = _run_cfg(repeats=2, epochs=20)
        first, _ = run_acda(x, y, cfg)
        second, _ = run_acda(x, y, cfg)
        assert first.values.tobytes() == second.values.tobytes()

    @pytest.mark.parametrize(
        "shape, side, count, batch_size",
        [
            # 150 samples at batch 32: every epoch ends on a short batch of 22.
            (NetworkShape.bottleneck(8, 5, 3), 16, 150, 32),
            # The benchmark-sized 40 -> 19 -> 13 -> 19 -> 40 at batch 256: 400 = 256 + 144.
            (default_shape(40), 24, 400, 256),
        ],
        ids=["linear", "default40"],
    )
    def test_lockstep_equals_independent_predictors(self, shape, side, count, batch_size):
        x, y, _ = generate(_scene(seed=13, side=side, bands=shape.input_dim))
        cfg = AcdaConfig(
            shape=shape,
            train=TrainConfig(
                epochs=4, batch_size=batch_size, learning_rate=2e-3, l2_lambda=1e-4
            ),
            repeats=3,
            base_seed=4,
        )
        samples = _explicit_samples(x, y, count)
        _, runs = run_acda(x, y, cfg, samples=samples)
        reversed_samples = SampleSet(samples.labels, samples.inputs)
        for r, run in enumerate(runs):
            for params, history, direction, pool in (
                (run.params_fwd, run.training_losses[0], 0, samples),
                (run.params_bwd, run.training_losses[1], 1, reversed_samples),
            ):
                alone = reference_train(
                    cfg.shape, pool, cfg.train, derived_seed(cfg.base_seed + r, direction)
                )
                assert_same_net((params, history), alone)

    def test_rejects_samples_that_do_not_fit_the_cubes(self):
        x, y, _ = generate(_scene(seed=13))
        other_x, other_y, _ = generate(
            SceneSpec(height=16, width=16, bands=6, n_endmembers=3, seed=13)
        )
        samples = _explicit_samples(other_x, other_y, 50)
        with pytest.raises(ValidationError, match="match"):
            run_acda(x, y, _run_cfg(epochs=2), samples=samples)

    def test_each_run_satisfies_min_dominance(self):
        x, y, _ = generate(_scene(seed=17, condition="affine", sigma=0.01))
        _, runs = run_acda(x, y, _run_cfg(repeats=2, epochs=25))
        for run in runs:
            assert np.all(run.fused.values <= run.loss_map_fwd.values)
            assert np.all(run.fused.values <= run.loss_map_bwd.values)
            p99 = np.percentile(run.fused.values, 99)
            assert p99 <= np.percentile(run.loss_map_fwd.values, 99)
            assert p99 <= np.percentile(run.loss_map_bwd.values, 99)

    def test_scoring_is_pixelwise(self):
        # With fixed params, permuting the pixels permutes the loss map:
        # scoring never mixes information across locations.
        rng = np.random.default_rng(21)
        params = init_params(NetworkShape.bottleneck(6, 4, 2), seed=9)
        x = rng.normal(size=(64, 6))
        y = rng.normal(size=(64, 6))
        perm = rng.permutation(64)
        base = loss_map(predict_image(params, x), y, (8, 8)).values.ravel()
        permuted = loss_map(predict_image(params, x[perm]), y[perm], (8, 8)).values.ravel()
        assert_allclose(permuted, base[perm], rtol=1e-13)

    def test_cube_shape_mismatch(self):
        x = HyperCube(np.ones((4, 4, 3), dtype=np.float32))
        y = HyperCube(np.ones((4, 5, 3), dtype=np.float32))
        with pytest.raises(ValidationError, match="disagree"):
            run_acda(x, y, _run_cfg())


class TestPrepareSamples:
    def test_rows_align_with_flattened_cubes(self):
        x, y, _ = generate(_scene(seed=23, condition="affine", sigma=0.01))
        cfg = _run_cfg()
        samples = prepare_samples(x, y, cfg)
        assert samples.size <= 150
        fx, fy = flatten(x), flatten(y)
        assert_array_equal(samples.inputs, fx[samples.indices])
        assert_array_equal(samples.labels, fy[samples.indices])
