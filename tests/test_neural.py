"""Fully connected nets: init, forward, loss, exact gradients, Adam, training."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.errors import NumericalError, ValidationError
from acdkit.neural import (
    AdamState,
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    adam_step,
    backward,
    derived_seed,
    forward_batch,
    init_adam_state,
    init_params,
    loss,
    train_lockstep,
)


from helpers import (
    assert_same_net,
    finite_difference_grads,
    generic_gradient_case,
    kink_margin,
    max_relative_error,
    reference_train,
)


def _identity_params(dim, activation="linear"):
    return MlpParams([np.eye(dim)], [np.zeros(dim)], activation)


class TestNetworkShape:
    def test_layer_dims_chain(self):
        shape = NetworkShape(16, (8, 5, 8), 16)
        assert shape.layer_dims == (16, 8, 5, 8, 16)

    def test_bottleneck_factory(self):
        shape = NetworkShape.bottleneck(16, 8, 5)
        assert shape.hidden == (8, 5, 8)

    def test_bottleneck_rejects_wide_first_hidden(self):
        with pytest.raises(ValidationError, match="bottleneck"):
            NetworkShape.bottleneck(16, 16, 5)

    def test_bottleneck_rejects_non_compressing_middle(self):
        with pytest.raises(ValidationError, match="bottleneck"):
            NetworkShape.bottleneck(16, 8, 8)

    def test_bottleneck_rejects_unmirrored_hidden(self):
        with pytest.raises(ValidationError, match="bottleneck"):
            NetworkShape(16, (8, 5, 7), 16).require_bottleneck()

    def test_rejects_zero_width(self):
        with pytest.raises(ValidationError, match=">= 1"):
            NetworkShape(4, (0,), 4)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValidationError, match="output_activation"):
            NetworkShape(4, (2,), 4, "tanh")

    @pytest.mark.parametrize("value", [True, 5.0, "5"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["input", "hidden", "output"])
    def test_rejects_non_integer_width(self, position, value):
        widths = [16, 8, 5, 8, 16]
        widths[position] = value
        with pytest.raises(ValidationError, match="must be an integer"):
            NetworkShape(widths[0], tuple(widths[1:4]), widths[4])

    def test_bottleneck_rejects_boolean_width(self):
        # True would otherwise pass as a width of 1: (15, 1, 15).
        with pytest.raises(ValidationError, match="must be an integer, got True"):
            NetworkShape.bottleneck(16, 15, True)


class TestInitParams:
    def test_he_std_at_fan_in_8(self):
        # sqrt(2/8) = 0.5; a 10^4-entry layer pins the sample std tightly.
        params = init_params(NetworkShape(8, (1250,), 8), seed=0)
        assert params.weights[0].shape == (1250, 8)
        assert abs(params.weights[0].std() - 0.5) < 0.05 * 0.5

    def test_he_std_at_fan_in_50(self):
        params = init_params(NetworkShape(50, (200,), 50), seed=1)
        expected = np.sqrt(2.0 / 50.0)
        assert abs(params.weights[0].std() - expected) < 0.05 * expected

    def test_biases_start_at_zero(self):
        params = init_params(NetworkShape(6, (4, 3, 4), 6), seed=2)
        for b in params.biases:
            assert_array_equal(b, np.zeros_like(b))

    def test_same_seed_bit_identical(self):
        shape = NetworkShape(7, (5, 3, 5), 7)
        a, b = init_params(shape, seed=42), init_params(shape, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_different_seeds_differ(self):
        shape = NetworkShape(7, (5,), 7)
        a, b = init_params(shape, seed=0), init_params(shape, seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])


class TestForward:
    def test_zero_params_map_to_zero(self):
        params = MlpParams(
            [np.zeros((4, 3)), np.zeros((3, 4))], [np.zeros(4), np.zeros(3)]
        )
        out, acts = forward_batch(params, np.array([[1.0, -2.0, 3.0]]))
        assert_array_equal(out, np.zeros((1, 3)))
        assert len(acts) == 3

    def test_single_relu_layer(self):
        params = _identity_params(2, "relu")
        out, _ = forward_batch(params, np.array([[-1.0, 2.0]]))
        assert_array_equal(out, [[0.0, 2.0]])

    def test_linear_output_preserves_sign(self):
        params = _identity_params(2, "linear")
        out, _ = forward_batch(params, np.array([[-1.0, 2.0]]))
        assert_array_equal(out, [[-1.0, 2.0]])

    def test_matches_independent_recomposition(self):
        rng = np.random.default_rng(9)
        params = init_params(NetworkShape(5, (7, 3), 5, "relu"), seed=9)
        x = rng.normal(size=5)
        current = x
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            current = w @ current + b
            if i < params.n_layers - 1 or params.output_activation == "relu":
                current = np.maximum(current, 0.0)
        out, acts = forward_batch(params, x[np.newaxis, :])
        assert_allclose(out[0], current, rtol=1e-12)
        assert_array_equal(acts[0][0], x)
        assert_array_equal(acts[-1], out)

    def test_batch_row_agrees_with_single_vector(self):
        rng = np.random.default_rng(13)
        params = init_params(NetworkShape(4, (6, 2, 6), 4), seed=3)
        batch = rng.normal(size=(8, 4))
        outs, _ = forward_batch(params, batch)
        for i in range(8):
            single, _ = forward_batch(params, batch[i : i + 1])
            assert_allclose(outs[i], single[0], rtol=1e-12)

    def test_dimension_mismatch(self):
        params = _identity_params(3)
        with pytest.raises(ValidationError, match="input_dim"):
            forward_batch(params, np.ones((1, 4)))


class TestLoss:
    def test_perfect_predictor_is_zero(self):
        rng = np.random.default_rng(17)
        inputs = rng.normal(size=(10, 3))
        batch = SampleSet(inputs, inputs)
        assert loss(_identity_params(3), batch, 0.0) == 0.0

    def test_direct_arithmetic(self):
        batch = SampleSet(np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]]))
        assert loss(_identity_params(2), batch, 0.0) == pytest.approx(4.0)

    def test_regularizer_matches_direct_summation(self):
        rng = np.random.default_rng(21)
        params = init_params(NetworkShape(4, (6, 3), 4), seed=5)
        inputs = rng.normal(size=(12, 4))
        batch = SampleSet(inputs, inputs)
        lam = 0.37
        expected = lam * sum(np.sum(w**2) for w in params.weights)
        assert loss(params, batch, lam) - loss(params, batch, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_mean_over_samples_not_bands(self):
        # Two samples, each with squared norm 4 over bands -> loss 4, not 2.
        inputs = np.zeros((2, 2))
        labels = np.full((2, 2), np.sqrt(2.0))
        params = _identity_params(2)
        assert loss(params, SampleSet(inputs, labels), 0.0) == pytest.approx(4.0)

    def test_empty_batch_rejected(self):
        batch = SampleSet(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(ValidationError, match="empty"):
            loss(_identity_params(3), batch, 0.0)


class TestBackward:
    def test_matches_finite_differences_on_bottleneck(self):
        params, batch = generic_gradient_case(NetworkShape(5, (8, 4, 8), 5), seed=7)
        assert kink_margin(params, batch) > 1e-3  # FD stencil stays off kinks
        grads = backward(params, batch, 1e-3)
        fd_w, fd_b = finite_difference_grads(params, batch, 1e-3)
        assert max_relative_error(grads.weights, fd_w) < 1e-4
        assert max_relative_error(grads.biases, fd_b) < 1e-4

    def test_matches_finite_differences_with_relu_output(self):
        params, batch = generic_gradient_case(NetworkShape(4, (6,), 4, "relu"), seed=11)
        grads = backward(params, batch, 0.0)
        fd_w, fd_b = finite_difference_grads(params, batch, 0.0)
        assert max_relative_error(grads.weights, fd_w) < 1e-4
        assert max_relative_error(grads.biases, fd_b) < 1e-4

    def test_zero_residual_zero_gradients(self):
        rng = np.random.default_rng(33)
        inputs = rng.normal(size=(10, 3))
        grads = backward(_identity_params(3), SampleSet(inputs, inputs), 0.0)
        for g in grads.weights + grads.biases:
            assert_allclose(g, np.zeros_like(g), atol=1e-14)

    def test_dead_relu_region_is_exactly_zero(self):
        # Negative inputs through an identity ReLU layer output exactly 0;
        # with zero labels the residual and every gradient entry are 0.
        inputs = -np.abs(np.random.default_rng(37).normal(size=(6, 2))) - 0.1
        batch = SampleSet(inputs, np.zeros((6, 2)))
        grads = backward(_identity_params(2, "relu"), batch, 0.0)
        for g in grads.weights + grads.biases:
            assert_array_equal(g, np.zeros_like(g))

    def test_doubling_lambda_doubles_decay_component(self):
        rng = np.random.default_rng(41)
        params = init_params(NetworkShape(3, (5,), 3), seed=13)
        batch = SampleSet(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
        g0 = backward(params, batch, 0.0)
        g1 = backward(params, batch, 0.05)
        g2 = backward(params, batch, 0.10)
        for a, b, c in zip(g0.weights, g1.weights, g2.weights):
            assert_allclose(c - a, 2.0 * (b - a), rtol=1e-10)
        for a, c in zip(g0.biases, g2.biases):
            assert_allclose(c, a, rtol=1e-12)  # biases are not regularized

    def test_gradient_check_across_random_shapes(self):
        rng = np.random.default_rng(45)
        for trial in range(5):
            q = int(rng.integers(2, 7))
            hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 4))))
            activation = "relu" if trial % 2 else "linear"
            shape = NetworkShape(q, hidden, q, activation)
            params, batch = generic_gradient_case(shape, seed=trial, batch_rows=4)
            grads = backward(params, batch, 1e-4)
            fd_w, fd_b = finite_difference_grads(params, batch, 1e-4)
            assert max_relative_error(grads.weights, fd_w) < 1e-4
            assert max_relative_error(grads.biases, fd_b) < 1e-4


class TestAdamStep:
    def _constant_grads(self, params, value):
        return MlpParams(
            [np.full_like(w, value) for w in params.weights],
            [np.full_like(b, value) for b in params.biases],
            params.output_activation,
        )

    def test_first_step_moves_by_lr_times_sign(self):
        params = init_params(NetworkShape(3, (4,), 3), seed=17)
        config = TrainConfig(learning_rate=1e-3)
        for g in (2.5, -0.3):
            new_params, state = adam_step(
                params, self._constant_grads(params, g), init_adam_state(params), config
            )
            assert state.step == 1
            for old, new in zip(params.weights, new_params.weights):
                assert_allclose(new - old, -1e-3 * np.sign(g), rtol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params = init_params(NetworkShape(3, (4,), 3), seed=19)
        config = TrainConfig()
        state = init_adam_state(params)
        current = params
        for _ in range(3):
            current, state = adam_step(
                current, self._constant_grads(params, 0.0), state, config
            )
        for old, new in zip(params.weights, current.weights):
            assert_array_equal(old, new)

    def test_identical_trajectories(self):
        rng = np.random.default_rng(49)
        params = init_params(NetworkShape(4, (5,), 4), seed=23)
        grad_seq = [
            MlpParams(
                [rng.normal(size=w.shape) for w in params.weights],
                [rng.normal(size=b.shape) for b in params.biases],
            )
            for _ in range(4)
        ]
        config = TrainConfig()

        def run():
            p, s = params, init_adam_state(params)
            for g in grad_seq:
                p, s = adam_step(p, g, s, config)
            return p

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_shape_mismatch_rejected(self):
        params = init_params(NetworkShape(3, (4,), 3), seed=29)
        bad = init_params(NetworkShape(3, (5,), 3), seed=29)
        with pytest.raises(ValidationError, match="shapes"):
            adam_step(params, bad, init_adam_state(params), TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", np.inf),
            ("learning_rate", np.nan),
            ("learning_rate", 0.0),
            ("l2_lambda", np.inf),
            ("l2_lambda", np.nan),
            ("l2_lambda", -1e-3),
        ],
    )
    def test_config_rejects_out_of_range_hyperparameters(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, 1.7, "2"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.01", None], ids=["bool", "str", "none"])
    @pytest.mark.parametrize("field", ["learning_rate", "l2_lambda"])
    def test_number_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a number"):
            TrainConfig(**{field: value})

    def test_accepts_numpy_integers_and_integer_rates(self):
        config = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), learning_rate=1)
        assert (config.epochs, config.batch_size, config.learning_rate) == (3, 8, 1)


def _train_one(shape, inputs, labels, config, seed):
    """One net through `train_lockstep`: pools of one input and one label block."""
    [trained] = train_lockstep(
        shape, inputs[np.newaxis], labels[np.newaxis], [(0, 0)], [seed], config, ["network"]
    )
    return trained


class TestTrain:
    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_matches_reference_loop_bit_for_bit(self, activation):
        # 37 samples at batch 8: four full batches and a short one per epoch.
        rng = np.random.default_rng(71)
        inputs, labels = rng.normal(size=(37, 4)), rng.uniform(0.0, 1.0, size=(37, 3))
        shape = NetworkShape(4, (6, 5), 3, activation)
        config = TrainConfig(epochs=6, batch_size=8, learning_rate=1e-2)
        assert_same_net(
            _train_one(shape, inputs, labels, config, seed=13),
            reference_train(shape, SampleSet(inputs, labels), config, seed=13),
        )

    def test_lockstep_matches_one_net_at_a_time(self):
        rng = np.random.default_rng(73)
        inputs = rng.normal(size=(2, 29, 4))
        labels = rng.uniform(0.0, 1.0, size=(3, 29, 2))
        shape = NetworkShape(4, (5,), 2, "relu")
        config = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2)
        roles = [(0, 2), (1, 0), (1, 2), (0, 2)]
        seeds = [3, 4, 5, 6]
        names = [f"net {k}" for k in range(len(seeds))]
        trained = train_lockstep(shape, inputs, labels, roles, seeds, config, names)
        assert len(trained) == len(seeds)
        for (a, b), seed, got in zip(roles, seeds, trained):
            alone = reference_train(shape, SampleSet(inputs[a], labels[b]), config, seed)
            assert_same_net(got, alone)

    def test_lockstep_leaves_pools_unchanged_and_returns_unshared_nets(self):
        # Training updates its buffers in place; none of that may reach the
        # caller's sample pools or tie one returned net to another.
        rng = np.random.default_rng(77)
        inputs = rng.normal(size=(2, 21, 3))
        labels = rng.normal(size=(2, 21, 3))
        before = inputs.tobytes(), labels.tobytes()
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2)
        trained = train_lockstep(
            NetworkShape(3, (4, 2), 3), inputs, labels, [(0, 1), (1, 0), (0, 0)], [1, 2, 3],
            config, ["a", "b", "c"],
        )
        assert (inputs.tobytes(), labels.tobytes()) == before
        arrays = [a for params, _ in trained for a in params.weights + params.biases]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, inputs) and not np.shares_memory(a, labels)
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_lockstep_rejects_roles_outside_pools(self):
        pool = np.ones((2, 8, 3))
        with pytest.raises(ValidationError, match="roles"):
            train_lockstep(
                NetworkShape(3, (4,), 3), pool, pool, [(0, 2)], [0], TrainConfig(), ["net"]
            )

    def test_divergence_is_numerical_error(self):
        # The overflow on the way to a non-finite loss raises no numpy warning:
        # with warnings as errors, the NumericalError is still what surfaces.
        rng = np.random.default_rng(75)
        inputs = rng.normal(size=(40, 3))
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="network.*epoch 0"):
                _train_one(NetworkShape(3, (4,), 3), inputs, inputs, config, seed=0)

    def test_identity_task_converges(self):
        rng = np.random.default_rng(53)
        inputs = rng.uniform(0.5, 1.5, size=(300, 5))
        config = TrainConfig(epochs=200, batch_size=32, l2_lambda=0.0)
        _, history = _train_one(NetworkShape(5, (8,), 5), inputs, inputs, config, seed=0)
        assert history[-1] < 0.01 * history[0]

    def test_affine_task_converges(self):
        rng = np.random.default_rng(57)
        inputs = rng.normal(size=(1000, 3))
        labels = 2.0 * inputs + 1.0
        config = TrainConfig(epochs=200, batch_size=64, learning_rate=3e-3, l2_lambda=0.0)
        params, history = _train_one(NetworkShape(3, (16,), 3), inputs, labels, config, seed=1)
        label_variance = float(np.var(labels, axis=0).sum())
        out, _ = forward_batch(params, inputs)
        final_mse = float(np.sum((out - labels) ** 2)) / inputs.shape[0]
        assert final_mse < 1e-3 * label_variance

    def test_fixed_seed_bit_identical_history(self):
        # Reruns agree, and so do two nets given one seed within one call.
        rng = np.random.default_rng(61)
        inputs = rng.normal(size=(64, 4))[np.newaxis]
        config = TrainConfig(epochs=10, batch_size=16)
        shape = NetworkShape(4, (6,), 4)
        first = train_lockstep(shape, inputs, inputs, [(0, 0)] * 2, [5, 5], config, ["a", "b"])
        again = train_lockstep(shape, inputs, inputs, [(0, 0)] * 2, [5, 5], config, ["a", "b"])
        for trained in (first[1], again[0], again[1]):
            assert_same_net(trained, first[0])

    def test_moving_average_of_identity_loss_is_non_increasing(self):
        # Full-batch steps (default batch 256 > S) keep the per-epoch loss
        # free of reshuffling noise, so the smoothed trend is clean.
        rng = np.random.default_rng(65)
        inputs = rng.uniform(0.5, 1.5, size=(200, 4))
        config = TrainConfig(epochs=200, l2_lambda=0.0)
        _, history = _train_one(NetworkShape(4, (6,), 4), inputs, inputs, config, seed=2)
        window = 20
        kernel = np.ones(window) / window
        moving = np.convolve(history, kernel, mode="valid")
        assert np.all(np.diff(moving) <= 1e-12 * moving[0])

    def test_short_final_batch_is_trained(self):
        # 10 samples at batch 8 -> per-epoch batches of 8 and 2; training
        # must still converge on the identity task.
        rng = np.random.default_rng(69)
        inputs = rng.uniform(0.5, 1.5, size=(10, 3))
        config = TrainConfig(epochs=300, batch_size=8, l2_lambda=0.0)
        _, history = _train_one(NetworkShape(3, (5,), 3), inputs, inputs, config, seed=3)
        assert history[-1] < 0.05 * history[0]

    def test_empty_samples_rejected(self):
        empty = np.empty((0, 3))
        with pytest.raises(ValidationError, match="empty"):
            _train_one(NetworkShape(3, (4,), 3), empty, empty, TrainConfig(), seed=0)

    def test_sample_dim_mismatch_rejected(self):
        ones = np.ones((8, 3))
        with pytest.raises(ValidationError, match="match"):
            _train_one(NetworkShape(4, (4,), 4), ones, ones, TrainConfig(), seed=0)


class TestSampleSet:
    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            SampleSet(np.ones((4, 2)), np.ones((5, 2)))

    def test_non_finite_rejected(self):
        bad = np.ones((3, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            SampleSet(bad, np.ones((3, 2)))


class TestDerivedSeed:
    def test_deterministic_and_key_sensitive(self):
        assert derived_seed(7, 1, 2) == derived_seed(7, 1, 2)
        assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)
        assert derived_seed(7, 1) != derived_seed(8, 1)

    def test_fits_in_64_bits(self):
        assert 0 <= derived_seed(2**63, 5, 9) < 2**64
