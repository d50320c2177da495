"""Shared test oracles: finite-difference gradients, a step-by-step trainer, rank-based AUC
and a tracemalloc peak."""

import tracemalloc

import numpy as np

from acdkit.neural import (
    MlpParams,
    NetworkShape,
    SampleSet,
    adam_step,
    backward,
    init_adam_state,
    init_params,
    loss,
)


def finite_difference_grads(params, batch, l2_lambda, step=1e-4):
    """Central finite differences of `loss` over every weight and bias entry.

    `batch` is an (inputs, labels) pair.
    """

    def fd_array(arr):
        grad = np.zeros_like(arr)
        flat, out = arr.ravel(), grad.ravel()
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + step
            plus = loss(params, *batch, l2_lambda)
            flat[j] = saved - step
            minus = loss(params, *batch, l2_lambda)
            flat[j] = saved
            out[j] = (plus - minus) / (2.0 * step)
        return grad

    return (
        [fd_array(w) for w in params.weights],
        [fd_array(b) for b in params.biases],
    )


def max_relative_error(analytic, numeric):
    """Worst per-entry |a-f| / max(|a|, |f|, 1e-4) over parallel array lists."""
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def kink_margin(params, inputs):
    """Smallest |pre-activation| feeding any ReLU over a batch of inputs.

    The finite-difference stencil is a valid derivative estimator only when
    no perturbation crosses a ReLU kink, i.e. when this margin comfortably
    exceeds the step size.
    """
    margin = np.inf
    current = inputs
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = current @ w.T + b
        margin = min(margin, float(np.min(np.abs(z))))
        current = np.maximum(z, 0.0)
    return margin


def generic_gradient_case(shape: NetworkShape, seed: int, batch_rows: int = 6):
    """A random net and an (inputs, labels) batch in generic position (pre-activations off kinks).

    Weights are He-normal and biases N(0, 0.3) -- zero biases put dead-row
    pre-activations exactly on the kink, where finite differences measure a
    one-sided slope instead of the gradient. Seeds advance deterministically
    until every pre-activation clears the kink by > 1e-3.
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        base = init_params(shape, attempt)
        params = MlpParams(
            base.weights,
            [rng.normal(0.0, 0.3, size=b.shape) for b in base.biases],
        )
        batch = (
            rng.normal(size=(batch_rows, shape.input_dim)),
            rng.normal(size=(batch_rows, shape.output_dim)),
        )
        if kink_margin(params, batch[0]) > 1e-3:
            return params, batch
        attempt += 1000


def reference_train(shape: NetworkShape, samples: SampleSet, config, seed: int):
    """One net trained one step at a time through the public per-net API.

    The oracle for `train_lockstep`: `default_rng(seed)` draws the He init
    and then one permutation per epoch, every mini-batch (the short last one
    included) takes one `loss`, `backward` and `adam_step`, and an epoch's
    loss is the mean of its mini-batch losses. Returns (params, history).
    """
    rng = np.random.default_rng(seed)
    dims = shape.layer_dims
    params = MlpParams(
        [
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ],
        [np.zeros(fan_out) for fan_out in dims[1:]],
    )
    state = init_adam_state(params)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(samples.size)
        values = []
        for start in range(0, samples.size, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = samples.inputs[idx], samples.labels[idx]
            values.append(loss(params, *batch, config.l2_lambda))
            grads = backward(params, *batch, config.l2_lambda)
            params, state = adam_step(params, grads, state, config)
        history.append(float(np.mean(values)))
    return params, history


def assert_same_net(trained, expected):
    """Two (params, history) pairs agree bit for bit."""
    (params, history), (ref_params, ref_history) = trained, expected
    assert list(history) == list(ref_history)
    for got, want in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
        assert got.tobytes() == want.tobytes()


def mann_whitney_auc(anomaly_scores, background_scores):
    """Brute-force pairwise AUC: wins + half-credit ties over all pairs."""
    anomaly = np.asarray(anomaly_scores, dtype=np.float64)
    background = np.asarray(background_scores, dtype=np.float64)
    wins = 0.0
    for a in anomaly:
        for b in background:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (anomaly.size * background.size)


def reference_kmeans_1d(values, k: int):
    """The (M, k) distance-matrix Lloyd loop that `kmeans_1d` replaced, as its oracle.

    Same seeding, reseed rule, stopping rule and ranking; returns the sorted
    centers and the ranked assignments.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    centers = np.quantile(flat, (2.0 * np.arange(k) + 1.0) / (2.0 * k))
    assignments = np.full(flat.size, -1, dtype=np.int64)
    for _ in range(300):
        distances = np.abs(flat[:, np.newaxis] - centers[np.newaxis, :])
        new_assignments = np.argmin(distances, axis=1)
        for cluster in range(k):
            if not np.any(new_assignments == cluster):
                residual = np.abs(flat - centers[new_assignments])
                sizes = np.bincount(new_assignments, minlength=k)
                residual[sizes[new_assignments] < 2] = -1.0
                outlier = int(np.argmax(residual))
                centers[cluster] = flat[outlier]
                new_assignments[outlier] = cluster
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            centers[cluster] = flat[assignments == cluster].mean()
    order = np.argsort(centers, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return centers[order], rank[assignments]


def peak_in_pixel_matrices(fn, cube) -> float:
    """tracemalloc peak of `fn()`, in units of one float64 pixel matrix of `cube`.

    `cube` is anything with `height`, `width` and `bands`: a HyperCube or a SceneSpec.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (cube.height * cube.width * cube.bands * 8)
