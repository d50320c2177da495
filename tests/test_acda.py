"""Dual-predictor pipeline: training, prediction, loss maps, fusion, repeats."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.acda import (
    AcdaConfig,
    bottleneck,
    predict_image,
    prepare_samples,
    run_acda,
)
from acdkit.baselines import diff_rx, fit_cc, run_baseline
from acdkit.core import HyperCube, IntensityMap, flatten, fuse_min, loss_map
from acdkit.errors import NumericalError, ValidationError
from acdkit.neural import (
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    derived_seed,
    init_params,
    loss,
    train_lockstep,
)
from acdkit.synth import AnomalyRect, SceneSpec, generate

from helpers import assert_same_net, peak_in_pixel_matrices, reference_train


def _sampled(img_in, img_out, count, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(img_in.shape[0], size=count, replace=False))
    return SampleSet(img_in, img_out, idx)


def _small_cfg(bands, epochs=150):
    h1, h2 = (5, 3) if bands >= 6 else (3, 2)
    return AcdaConfig(
        h1=h1,
        h2=h2,
        epochs=epochs,
        batch_size=32,
        learning_rate=3e-3,
        l2_lambda=1e-4,
        sample_count=200,
        repeats=1,
        base_seed=0,
    )


def _train_directions(samples, cfg, seeds):
    """Train predictors on `samples` as `run_acda` does, from one (2, S, Q) pool.

    Direction is set by the roles alone: the net of seeds[0] maps x rows to
    y rows, the net of seeds[1] (if given) y rows to x rows.
    """
    roles = [(0, 1), (1, 0)][: len(seeds)]
    return train_lockstep(
        bottleneck(samples.pool.shape[2], cfg.h1, cfg.h2), samples.pool, roles, seeds, cfg,
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
        # `loss` runs the same forward pass: against zero labels, without
        # decay, it is the squared norm of the prediction.
        assert loss(params, spectrum, np.zeros_like(spectrum), 0.0) == float(np.sum(out**2))

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

    def test_holds_two_layers_not_every_layer(self):
        # 1024 rows through 16 -> 64 -> 48 -> 64 -> 16: keeping every layer's
        # output holds 192 float64 columns, two adjacent layers at most 112.
        params = init_params(NetworkShape(16, (64, 48, 64), 16), seed=1)
        rows = np.random.default_rng(2).normal(size=(1024, 16))
        tracemalloc.start()
        try:
            predict_image(params, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 160 * 8

    def test_chunked_prediction_matches_one_chunk(self, monkeypatch):
        # loss_map feeds predict_image row blocks of _BLOCK; 30 rows in blocks
        # of 7 end on a last block that takes the remainder, 9 rows. BLAS may
        # pick another kernel for another block size, so the low bits may move.
        rng = np.random.default_rng(31)
        params = init_params(bottleneck(16, 8, 5), seed=11)
        img = rng.uniform(0.0, 1.0, size=(30, 16))
        whole = predict_image(params, img)
        blocks = []

        def recording(x):
            out = predict_image(params, x)
            blocks.append(out.copy())
            return out

        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        loss_map(recording, img, img, (5, 6))
        assert [b.shape[0] for b in blocks] == [7, 7, 7, 9]
        chunked = np.concatenate(blocks)
        assert chunked.shape == whole.shape
        assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))


class TestLossMap:
    def test_perfect_prediction_scores_zero(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(20, 3))
        assert_array_equal(loss_map(np.copy, m, m.copy(), (4, 5)).values, np.zeros((4, 5)))

    def test_two_band_arithmetic(self):
        out = loss_map(np.copy, np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]]), (1, 1))
        assert out.values[0, 0] == pytest.approx(2.0)  # ((0)^2 + (2)^2) / 2

    def test_matches_per_pixel_loop(self):
        rng = np.random.default_rng(19)
        predicted = rng.normal(size=(64, 4))
        expected = rng.normal(size=(64, 4))
        values = loss_map(np.copy, predicted, expected, (8, 8)).values.ravel()
        for i in range(64):
            direct = sum((predicted[i, b] - expected[i, b]) ** 2 for b in range(4)) / 4.0
            assert values[i] == pytest.approx(direct, rel=1e-12)

    def test_shape_coverage_mismatch(self):
        with pytest.raises(ValidationError, match="cover"):
            loss_map(np.copy, np.ones((10, 2)), np.ones((10, 2)), (3, 3))

    def test_matrix_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            loss_map(np.copy, np.ones((10, 2)), np.ones((10, 3)), (2, 5))

    def test_prediction_width_mismatch(self):
        params = init_params(NetworkShape(3, (4,), 2), seed=1)
        with pytest.raises(ValidationError, match="disagree"):
            loss_map(functools.partial(predict_image, params), np.ones((10, 3)),
                     np.ones((10, 3)), (2, 5))

    def test_row_blocks_match_one_whole_matrix_pass(self, monkeypatch):
        # 30 rows in blocks of 7: the last block takes the remainder, 9 rows.
        rng = np.random.default_rng(37)
        x = rng.uniform(0.0, 1.0, size=(30, 16))
        y = rng.uniform(0.0, 1.0, size=(30, 16))
        net = functools.partial(predict_image, init_params(bottleneck(16, 8, 5), seed=11))
        linear = fit_cc(x, y).predict
        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        for predict in (net, linear):
            rows = []

            def counting(block, predict=predict):
                rows.append(block.shape[0])
                return predict(block)

            values = loss_map(counting, x, y, (5, 6)).values.ravel()
            assert rows == [7, 7, 7, 9]
            assert values.tobytes() == np.mean((predict(x) - y) ** 2, axis=1).tobytes()

    def test_short_remainder_joins_the_last_block(self):
        # 2049 rows would end on a 1-row block, which BLAS computes with
        # another kernel (the low bits move); folded into the block before,
        # the map equals a whole-matrix pass bit for bit.
        rng = np.random.default_rng(41)
        x = rng.uniform(0.0, 1.0, size=(2049, 40))
        y = rng.uniform(0.0, 1.0, size=(2049, 40))
        predict = functools.partial(predict_image, init_params(bottleneck(40), seed=5))
        values = loss_map(predict, x, y, (3, 683)).values.ravel()
        assert values.tobytes() == np.mean((predict(x) - y) ** 2, axis=1).tobytes()


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
        shape = bottleneck(127)
        assert shape.layer_dims == (127, 60, 40, 60, 127)

    def test_scaled_to_sixteen_bands(self):
        shape = bottleneck(16)
        assert shape.layer_dims == (16, 8, 5, 8, 16)

    def test_tiny_band_count_still_compresses(self):
        shape = bottleneck(4)
        assert shape.layer_dims == (4, 2, 1, 2, 4)

    def test_rejects_too_few_bands(self):
        with pytest.raises(ValidationError, match="bands"):
            bottleneck(2)

    @pytest.mark.parametrize(
        "bands, h1, h2, message",
        [
            (16, 5, 8, "bottleneck"),
            (16, 8, 0, "bottleneck"),
            (16, 20, 5, "bottleneck"),
            (16, True, 1, "h1 must be an integer, got True"),
            (16, 8, 5.0, "h2 must be an integer, got 5.0"),
            (2, None, None, "at least 3 bands"),
        ],
        ids=["h2-above-h1", "h2-zero", "h1-above-bands", "bool-width", "float-width",
             "two-bands-unset"],
    )
    def test_rejects_widths_that_do_not_compress(self, bands, h1, h2, message):
        with pytest.raises(ValidationError, match=message):
            bottleneck(bands, h1, h2)


class TestConfig:
    @pytest.mark.parametrize(
        "widths, message",
        [
            ({"h1": 5}, "h1 and h2 must be set together"),
            ({"h2": 3}, "h1 and h2 must be set together"),
            ({"h1": 5.0, "h2": 3}, "h1 must be an integer"),
            ({"h1": 5, "h2": True}, "h2 must be an integer"),
        ],
        ids=["h1-only", "h2-only", "float-h1", "bool-h2"],
    )
    def test_rejects_unpaired_or_non_integer_widths(self, widths, message):
        with pytest.raises(ValidationError, match=message):
            AcdaConfig(**widths)

    def test_fields_are_the_nine_detect_acda_keys(self):
        names = [f.name for f in dataclasses.fields(AcdaConfig)]
        assert names == ["epochs", "batch_size", "learning_rate", "l2_lambda",
                         "h1", "h2", "sample_count", "repeats", "base_seed"]
        assert isinstance(AcdaConfig(), TrainConfig)

    @pytest.mark.parametrize(
        "make", [lambda: AcdaConfig(15, 10), lambda: TrainConfig(200)], ids=["acda", "train"]
    )
    def test_settings_are_keyword_only(self, make):
        # by position, AcdaConfig(15, 10) would set epochs and batch_size, not the widths
        with pytest.raises(TypeError):
            make()

    def test_training_settings_are_checked_first(self):
        with pytest.raises(ValidationError, match="epochs must be >= 1"):
            AcdaConfig(epochs=0, h1=15)

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
    return SampleSet(fx, fy, idx)


def _run_cfg(repeats=1, epochs=120, base_seed=0):
    return AcdaConfig(
        h1=5,
        h2=3,
        epochs=epochs,
        batch_size=32,
        learning_rate=2e-3,
        l2_lambda=1e-4,
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
        "bands, widths, side, count, batch_size",
        [
            # 150 samples at batch 32: every epoch ends on a short batch of 22.
            (8, (5, 3), 16, 150, 32),
            # The benchmark-sized 40 -> 19 -> 13 -> 19 -> 40 at batch 256: 400 = 256 + 144.
            (40, (None, None), 24, 400, 256),
        ],
        ids=["linear", "default40"],
    )
    def test_lockstep_equals_independent_predictors(self, bands, widths, side, count, batch_size):
        x, y, _ = generate(_scene(seed=13, side=side, bands=bands))
        cfg = AcdaConfig(
            h1=widths[0],
            h2=widths[1],
            epochs=4,
            batch_size=batch_size,
            learning_rate=2e-3,
            l2_lambda=1e-4,
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
                    bottleneck(bands, *widths), pool, cfg, derived_seed(cfg.base_seed + r, direction)
                )
                assert_same_net((params, history), alone)

    def test_one_config_fits_any_band_count(self):
        # The widths hold no band count: each run builds its shape from its cubes.
        cfg = AcdaConfig(h1=5, h2=3, epochs=1, repeats=1)
        for bands in (8, 16):
            x, y, _ = generate(_scene(seed=7, bands=bands))
            _, [run] = run_acda(x, y, cfg)
            dims = [w.shape for w in run.params_fwd.weights]
            assert dims == [(5, bands), (3, 5), (5, 3), (bands, 5)]

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
        params = init_params(bottleneck(6, 4, 2), seed=9)
        x = rng.normal(size=(64, 6))
        y = rng.normal(size=(64, 6))
        perm = rng.permutation(64)
        predict = functools.partial(predict_image, params)
        base = loss_map(predict, x, y, (8, 8)).values.ravel()
        permuted = loss_map(predict, x[perm], y[perm], (8, 8)).values.ravel()
        assert_allclose(permuted, base[perm], rtol=1e-13)

    def test_cube_shape_mismatch(self):
        x = HyperCube(np.ones((4, 4, 3), dtype=np.float32))
        y = HyperCube(np.ones((4, 5, 3), dtype=np.float32))
        with pytest.raises(ValidationError, match="disagree"):
            run_acda(x, y, _run_cfg())

    def test_trains_on_the_sample_pool_without_a_copy(self, monkeypatch):
        pools = []

        def recorded(shape, pool, *args):
            pools.append(pool)
            return train_lockstep(shape, pool, *args)

        monkeypatch.setattr("acdkit.acda.train_lockstep", recorded)
        x, y, _ = generate(_scene(seed=7))
        cfg = _run_cfg(repeats=2, epochs=2)
        samples = prepare_samples(x, y, cfg)
        run_acda(x, y, cfg, samples=samples)
        (pool,) = pools
        assert pool.shape == (2, samples.size, x.bands)
        assert pool is samples.pool
        assert pool[0].ctypes.data == samples.inputs.ctypes.data
        assert pool[1].ctypes.data == samples.labels.ctypes.data

    def test_non_finite_loss_map_names_its_net(self, monkeypatch):
        # Weights scaled by 1e80 overflow the prediction; the run must fail
        # with a NumericalError (exit 3), not a NumPy warning or a ValidationError.
        def overflowing(*args):
            return [
                (MlpParams([w * 1e80 for w in params.weights], params.biases), history)
                for params, history in train_lockstep(*args)
            ]

        monkeypatch.setattr("acdkit.acda.train_lockstep", overflowing)
        x, y, _ = generate(_scene(seed=7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="repeat 0 fwd predictor"):
                run_acda(x, y, _run_cfg(epochs=2))


class TestPeakMemory:
    """Scoring, pre-detection and the baselines hold row blocks, not pixel matrices.

    The cubes are float32 and every step widens one row block at a time to
    float64, so a unit here (one float64 pixel matrix) is two cubes' worth
    of storage. On the 64 x 64 x 16 scene the peaks measure about 1.57 (the
    run, set by training's buffers, which do not grow with the image), 0.57
    (scoring one net), 0.89 (pre-detection) and 0.88 (Diff-RX) pixel
    matrices, a 1024-row block being a quarter of the image there; each
    bound is its peak plus about a quarter. A float64 copy of both cubes
    adds 2, and scoring that predicts the whole image first reaches 1 or
    more. On the 128 x 128 x 16 scene a 1024-row block is 1/16 of the
    image: scoring one net or one CC direction measures about 0.19 and
    0.22, Diff-RX 0.22, both CC or CE directions with their scoring 0.28,
    and pre-detection 0.41 (k-means keeps a few per-pixel vectors). Taking
    any moments on a whole difference or a centered copy of a cube adds
    one pixel matrix.
    """

    @pytest.fixture(scope="class")
    def scene(self):
        return generate(
            SceneSpec(height=64, width=64, bands=16, n_endmembers=6, condition="nonlinear",
                      condition_strength=0.8, noise_sigma=0.01, seed=11)
        )

    @pytest.fixture(scope="class")
    def large_scene(self):
        return generate(
            SceneSpec(height=128, width=128, bands=16, n_endmembers=6, condition="nonlinear",
                      condition_strength=0.8, noise_sigma=0.01, seed=11)
        )

    def test_run_acda_peak_is_at_most_two_pixel_matrices(self, scene):
        x, y, _ = scene
        cfg = AcdaConfig(epochs=1, repeats=2)
        assert peak_in_pixel_matrices(lambda: run_acda(x, y, cfg), x) <= 2.0

    def test_prepare_samples_peak_is_at_most_one_and_a_tenth_pixel_matrices(self, scene):
        x, y, _ = scene
        cfg = AcdaConfig(epochs=1, repeats=2)
        assert peak_in_pixel_matrices(lambda: prepare_samples(x, y, cfg), x) <= 1.1

    def test_scoring_peak_is_at_most_three_quarters_of_a_pixel_matrix(self, scene):
        x, y, _ = scene
        predict = functools.partial(predict_image, init_params(bottleneck(x.bands), seed=3))
        fx, fy, plane = flatten(x), flatten(y), (x.height, x.width)
        assert peak_in_pixel_matrices(lambda: loss_map(predict, fx, fy, plane), x) <= 0.75

    def test_scoring_holds_row_blocks_not_pixel_matrices(self, large_scene):
        # Predicting the whole image first would hold at least one pixel matrix.
        x, y, _ = large_scene
        fx, fy, plane = flatten(x), flatten(y), (x.height, x.width)
        net = functools.partial(predict_image, init_params(bottleneck(x.bands), seed=3))
        cc = fit_cc(fx, fy).predict
        for predict in (net, cc):
            assert peak_in_pixel_matrices(lambda: loss_map(predict, fx, fy, plane), x) < 0.5

    def test_diff_rx_peak_is_at_most_one_and_a_tenth_pixel_matrices(self, scene):
        x, y, _ = scene
        fx, fy, plane = flatten(x), flatten(y), (x.height, x.width)
        assert peak_in_pixel_matrices(lambda: diff_rx(fx, fy, plane), x) <= 1.1

    def test_prepare_samples_holds_one_pixel_matrix(self, large_scene):
        x, y, _ = large_scene
        cfg = AcdaConfig(epochs=1, repeats=2)
        assert peak_in_pixel_matrices(lambda: prepare_samples(x, y, cfg), x) < 0.5

    def test_diff_rx_holds_the_difference_and_row_blocks(self, large_scene):
        # The difference is formed one row block at a time, never whole.
        x, y, _ = large_scene
        fx, fy, plane = flatten(x), flatten(y), (x.height, x.width)
        assert peak_in_pixel_matrices(lambda: diff_rx(fx, fy, plane), x) < 0.5

    def test_cc_holds_row_blocks_not_pixel_matrices(self, large_scene):
        x, y, _ = large_scene
        assert peak_in_pixel_matrices(lambda: run_baseline("cc", x, y), x) < 0.5

    def test_ce_holds_row_blocks_not_pixel_matrices(self, large_scene):
        x, y, _ = large_scene
        assert peak_in_pixel_matrices(lambda: run_baseline("ce", x, y), x) < 0.5


class TestPrepareSamples:
    def test_rows_align_with_flattened_cubes(self):
        x, y, _ = generate(_scene(seed=23, condition="affine", sigma=0.01))
        cfg = _run_cfg()
        samples = prepare_samples(x, y, cfg)
        assert samples.size <= 150
        fx, fy = flatten(x), flatten(y)
        assert_array_equal(samples.inputs, fx[samples.indices])
        assert_array_equal(samples.labels, fy[samples.indices])
