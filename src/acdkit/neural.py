"""From-scratch fully connected network engine for the spectral predictors.

Plain numpy, float64 throughout: He-normal init, ReLU hidden layers, a
selectable linear or ReLU output layer, squared-error loss with L2 weight
decay, exact reverse-mode gradients, Adam, and seeded mini-batch training.
Adam uses the constants recommended by Kingma & Ba (ICLR 2015): beta1 = 0.9,
beta2 = 0.999, eps = 1e-8; only the learning rate is configurable.
Everything is deterministic under a fixed seed.

The forward, gradient and Adam kernels are rank-polymorphic: the same code
runs one net on (out, in) weights and (B, in) batches, or N nets of one
shape stacked into (N, out, in) weights and (N, B, in) batches, which is how
`train_lockstep` trains many small nets with one batched matmul per layer.
Parameters, gradients and both Adam moments each live in one contiguous
float64 buffer with one layout (`_Flat`): every weight block, layer by layer,
then every bias block. Gradients are written into their buffer in place, and
Adam is one in-place pass over the flat buffers: 14 ufunc calls however many
layers and nets it updates. The per-net `backward` and `adam_step` copy one
net into the same layout and run the same kernels, so there is one Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _require_int, _require_number
from .errors import NumericalError, ValidationError

OUTPUT_ACTIVATIONS = ("linear", "relu")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths of a fully connected net: input -> hidden... -> output."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    output_activation: str = "linear"

    def __post_init__(self):
        hidden = tuple(_require_int(h, "hidden layer width") for h in self.hidden)
        object.__setattr__(self, "hidden", hidden)
        _require_int(self.input_dim, "input_dim")
        _require_int(self.output_dim, "output_dim")
        widths = (self.input_dim, *self.hidden, self.output_dim)
        if any(w < 1 for w in widths):
            raise ValidationError(f"all layer widths must be >= 1, got {widths}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValidationError(
                f"output_activation must be one of {OUTPUT_ACTIVATIONS}, "
                f"got '{self.output_activation}'"
            )

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

    @classmethod
    def bottleneck(
        cls, bands: int, h1: int, h2: int, output_activation: str = "linear"
    ) -> "NetworkShape":
        """Mirrored three-hidden-layer shape Q -> h1 -> h2 -> h1 -> Q.

        Requires h1 < bands and h2 < h1 so the middle layer is a genuine
        compression of the spectrum.
        """
        shape = cls(bands, (h1, h2, h1), bands, output_activation)
        shape.require_bottleneck()
        return shape

    def require_bottleneck(self) -> None:
        """Reject shapes that do not compress: hidden must be (h1, h2, h1) with h2 < h1 < Q."""
        ok = (
            len(self.hidden) == 3
            and self.hidden[0] == self.hidden[2]
            and self.hidden[0] < self.input_dim
            and self.hidden[1] < self.hidden[0]
            and self.input_dim == self.output_dim
        )
        if not ok:
            raise ValidationError(
                f"shape {self.layer_dims} is not a mirrored bottleneck "
                "(need hidden (h1, h2, h1) with h2 < h1 < input_dim)"
            )


@dataclass
class MlpParams:
    """Per-layer weight matrices (out x in) and bias vectors, float64."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "linear"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValidationError("weights and biases must be non-empty parallel lists")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValidationError(f"layer {i} has inconsistent shapes {w.shape}, {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValidationError(
                    f"layer {i} input dim {w.shape[1]} != previous output "
                    f"{self.weights[i - 1].shape[0]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {i} contains non-finite entries")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValidationError(f"unknown output_activation '{self.output_activation}'")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for mini-batch Adam training."""

    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    l2_lambda: float = 1e-3

    def __post_init__(self):
        _require_int(self.epochs, "epochs")
        _require_int(self.batch_size, "batch_size")
        _require_number(self.learning_rate, "learning_rate")
        _require_number(self.l2_lambda, "l2_lambda")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l2_lambda < 0:
            raise ValidationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


@dataclass(frozen=True)
class SampleSet:
    """Paired (input, label) spectra; row i of both sides comes from one pixel."""

    inputs: np.ndarray  # (S, Q)
    labels: np.ndarray  # (S, Q)
    indices: np.ndarray | None = None  # source pixel rows, kept for audit

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if inputs.ndim != 2 or labels.ndim != 2:
            raise ValidationError("sample inputs and labels must be 2-D matrices")
        if inputs.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"inputs have {inputs.shape[0]} rows, labels {labels.shape[0]}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(labels))):
            raise ValidationError("sample set contains non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if self.indices is not None:
            object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class AdamState:
    """First/second moment accumulators, flat in the `_Flat` layout, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


class _Flat:
    """The weights and biases of one net, or of N stacked nets, in one float64 buffer.

    The layout is every weight block, layer by layer, each (*lead, out, in),
    then every bias block (*lead, out), where `lead` is () for one net and
    (N,) for N. `weights` and `biases` are views into `data`, whose first
    `n_weights` entries are the weights.
    """

    def __init__(self, dims: tuple[int, ...], lead: tuple[int, ...] = ()):
        pairs = list(zip(dims[:-1], dims[1:]))
        blocks = [(*lead, o, i) for i, o in pairs] + [(*lead, o) for _, o in pairs]
        sizes = [math.prod(block) for block in blocks]
        self.dims = dims
        self.data = np.empty(sum(sizes))
        self.n_weights = sum(sizes[: len(pairs)])
        views, start = [], 0
        for block, size in zip(blocks, sizes):
            views.append(self.data[start : start + size].reshape(block))
            start += size
        self.weights = views[: len(pairs)]
        self.biases = views[len(pairs) :]

    @classmethod
    def of(cls, params: MlpParams) -> "_Flat":
        """A copy of one net's parameters (or gradients) in the flat layout."""
        flat = cls((params.input_dim, *(w.shape[0] for w in params.weights)))
        for dst, src in zip(flat.weights + flat.biases, params.weights + params.biases):
            dst[...] = src
        return flat


def _he_init(shape: NetworkShape, rng: np.random.Generator) -> tuple[list, list]:
    dims = shape.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def init_params(shape: NetworkShape, seed: int) -> MlpParams:
    """He-normal weights (variance 2 / fan_in), zero biases, seeded."""
    weights, biases = _he_init(shape, np.random.default_rng(seed))
    return MlpParams(weights, biases, shape.output_activation)


def _forward(weights, biases, relu_output: bool, x: np.ndarray):
    """Forward pass on raw arrays, one net or N stacked nets (see module doc)."""
    activations = [x]
    current = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        current = current @ np.swapaxes(w, -1, -2)
        current += b[..., np.newaxis, :]
        if i < last or relu_output:
            np.maximum(current, 0.0, out=current)
        activations.append(current)
    return current, activations


def forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run a (B, Q) batch through the net.

    Returns the (B, output_dim) outputs and the list of post-activation
    values per layer (inputs first, outputs last) needed for backprop.
    """
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValidationError(
            f"batch shape {batch.shape} does not match input_dim {params.input_dim}"
        )
    return _forward(params.weights, params.biases, params.output_activation == "relu", batch)


def loss(params: MlpParams, batch: SampleSet, l2_lambda: float) -> float:
    """Mean squared spectral norm plus L2 weight decay.

    (1/S) sum_i ||out_i - label_i||^2 + lambda * sum_j ||W_j||_F^2.
    The squared norm sums over bands without dividing by Q; biases are not
    regularized.
    """
    if batch.size == 0:
        raise ValidationError("loss of an empty batch is undefined")
    out, _ = forward_batch(params, batch.inputs)
    data_term = float(np.sum((out - batch.labels) ** 2)) / batch.size
    reg_term = l2_lambda * sum(float(np.sum(w * w)) for w in params.weights)
    return data_term + reg_term


def _loss_and_grads(
    params: _Flat, grads: _Flat, relu_output: bool, inputs, labels, l2_lambda: float
):
    """`loss` and `backward` in one pass, one net or N stacked nets.

    Writes every gradient into `grads` (laid out like `params`) and returns
    the loss (a 0-d array for one net, shape (N,) for N nets). Each net's
    squared residual is summed over its whole (B, out) block, in the same
    order as `loss` sums it.
    """
    weights = params.weights
    out, acts = _forward(weights, params.biases, relu_output, inputs)
    size = inputs.shape[-2]
    residual = out - labels
    value = np.sum(residual * residual, axis=(-2, -1)) / size
    value = value + l2_lambda * sum(np.sum(w * w, axis=(-2, -1)) for w in weights)

    delta = np.multiply(residual, 2.0 / size, out=residual)
    if relu_output:
        delta *= acts[-1] > 0.0
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(np.swapaxes(delta, -1, -2), acts[i], out=grads.weights[i])
        np.sum(delta, axis=-2, out=grads.biases[i])
        if i > 0:
            delta = delta @ weights[i]
            delta *= acts[i] > 0.0
    # The L2 term 2 * lambda * W, added once over the whole weight slice.
    grad_w = grads.data[: grads.n_weights]
    grad_w += (2.0 * l2_lambda) * params.data[: params.n_weights]
    return value


def backward(params: MlpParams, batch: SampleSet, l2_lambda: float) -> MlpParams:
    """Exact gradient of `loss` w.r.t. every weight and bias.

    ReLU uses the zero subgradient at 0. The return value reuses MlpParams
    as a container of gradient arrays with matching shapes.
    """
    if batch.size == 0:
        raise ValidationError("gradient of an empty batch is undefined")
    flat = _Flat.of(params)
    grads = _Flat(flat.dims)
    _loss_and_grads(
        flat,
        grads,
        params.output_activation == "relu",
        batch.inputs,
        batch.labels,
        l2_lambda,
    )
    return MlpParams(grads.weights, grads.biases, params.output_activation)


def init_adam_state(params: MlpParams) -> AdamState:
    size = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
    return AdamState(np.zeros(size), np.zeros(size))


def _adam_update(params, grads, state: AdamState, learning_rate: float, work) -> None:
    """One bias-corrected Adam update, in place on flat buffers of one layout.

    Updates `params`, `state.m`, `state.v` and `state.step`; `work` is (2, size)
    scratch. Each elementwise operation runs in the order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p = p - lr*(m/c1)/(sqrt(v/c2)+eps), so the result is bit-identical to
    evaluating those expressions on each weight and bias array separately.
    """
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    state.step += 1
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    m, v = state.m, state.v
    step, denom = work
    np.multiply(m, b1, out=m)
    np.multiply(grads, 1.0 - b1, out=step)
    np.add(m, step, out=m)
    np.multiply(grads, grads, out=step)
    np.multiply(step, 1.0 - b2, out=step)
    np.multiply(v, b2, out=v)
    np.add(v, step, out=v)
    np.divide(m, corr1, out=step)
    np.multiply(step, learning_rate, out=step)
    np.divide(v, corr2, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, _ADAM_EPS, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(params, step, out=params)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, config: TrainConfig
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    if [w.shape for w in grads.weights] != [w.shape for w in params.weights]:
        raise ValidationError("gradient shapes do not match parameter shapes")
    flat = _Flat.of(params)
    if state.m.shape != flat.data.shape or state.v.shape != flat.data.shape:
        raise ValidationError("Adam state shapes do not match parameter shapes")
    new_state = AdamState(state.m.copy(), state.v.copy(), state.step)
    work = np.empty((2, flat.data.size))
    _adam_update(flat.data, _Flat.of(grads).data, new_state, config.learning_rate, work)
    return MlpParams(flat.weights, flat.biases, params.output_activation), new_state


def train_lockstep(
    shape: NetworkShape,
    inputs: np.ndarray,
    labels: np.ndarray,
    roles: list[tuple[int, int]],
    seeds: list[int],
    config: TrainConfig,
    names: list[str],
) -> list[tuple[MlpParams, list[float]]]:
    """Train len(seeds) nets of one shape at once, one batched matmul per layer.

    `inputs` (P, S, input_dim) and `labels` (P', S, output_dim) are pools of
    sample rows shared by every net: net k maps inputs[roles[k][0]] to
    labels[roles[k][1]], and its batches are gathered from those pools, so
    no net gets a copy of its own. Net k owns the generator
    `default_rng(seeds[k])`, which draws its He init and then one
    permutation per epoch, so a fixed seed yields a bit-identical run. The
    final short batch of each epoch is trained on like any other. Each
    net's weights and losses are bit-identical to training it alone, one
    batch at a time, through `loss`, `backward` and `adam_step`.

    The parameters, gradients and Adam moments of all nets are four flat
    buffers in the `_Flat` layout, allocated once: every step writes its
    gradients into theirs and then takes one in-place Adam pass over all of
    them. The sample pools are only read, and each returned net owns a copy
    of its weights.

    Returns one (params, per-epoch losses) pair per net, in seed order; an
    epoch's loss is the mean of its mini-batch losses, each taken before
    its update. Each epoch's losses are checked once: the first non-finite
    one raises NumericalError naming its net (`names[k]`) and the epoch.
    Overflow on the way there is expected and raises no numpy warning.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if inputs.ndim != 3 or labels.ndim != 3 or inputs.shape[1] != labels.shape[1]:
        raise ValidationError(
            f"sample pools must be (P, S, dim) with equal S, got {inputs.shape} and {labels.shape}"
        )
    size = inputs.shape[1]
    if size == 0:
        raise ValidationError("cannot train on an empty sample set")
    if shape.input_dim != inputs.shape[2] or shape.output_dim != labels.shape[2]:
        raise ValidationError(
            f"shape {shape.layer_dims} does not match sample dims "
            f"{inputs.shape[2]} -> {labels.shape[2]}"
        )
    count = len(seeds)
    if count < 1 or len(roles) != count or len(names) != count:
        raise ValidationError(
            f"need one role and name per seed, got {len(roles)} roles, "
            f"{len(names)} names, {count} seeds"
        )
    if any(not (0 <= a < inputs.shape[0] and 0 <= b < labels.shape[0]) for a, b in roles):
        raise ValidationError(f"roles {roles} index outside the sample pools")
    # Batches are gathered with np.take from the pools flattened to rows:
    # net k's sample j is row roles[k][0] * S + j of the inputs.
    input_rows = inputs.reshape(-1, inputs.shape[2])
    label_rows = labels.reshape(-1, labels.shape[2])
    src = np.array([a for a, _ in roles])[:, np.newaxis] * size
    dst = np.array([b for _, b in roles])[:, np.newaxis] * size

    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = _Flat(shape.layer_dims, (count,))
    for k, rng in enumerate(rngs):
        init_w, init_b = _he_init(shape, rng)
        for block, init in zip(params.weights + params.biases, init_w + init_b):
            block[k] = init
    grads = _Flat(shape.layer_dims, (count,))
    state = AdamState(np.zeros_like(params.data), np.zeros_like(params.data))
    work = np.empty((2, params.data.size))
    relu_output = shape.output_activation == "relu"
    history = np.empty((config.epochs, count))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = np.stack([rng.permutation(size) for rng in rngs])
            input_idx, label_idx = src + order, dst + order
            batch_losses = []
            for start in range(0, size, config.batch_size):
                batch = slice(start, start + config.batch_size)
                value = _loss_and_grads(
                    params, grads, relu_output,
                    np.take(input_rows, input_idx[:, batch], axis=0),
                    np.take(label_rows, label_idx[:, batch], axis=0),
                    config.l2_lambda,
                )
                _adam_update(params.data, grads.data, state, config.learning_rate, work)
                batch_losses.append(value)
            # (N, batches), reduced along rows: the same sum order as one net's np.mean
            history[epoch] = np.mean(np.stack(batch_losses, axis=1), axis=1)
            diverged = np.flatnonzero(~np.isfinite(history[epoch]))
            if diverged.size:
                raise NumericalError(
                    f"{names[diverged[0]]}: training loss is non-finite at epoch {epoch} "
                    f"(learning_rate={config.learning_rate})"
                )
    # Each net gets its own copy: nothing returned aliases the training buffers.
    return [
        (
            MlpParams(
                [w[k].copy() for w in params.weights],
                [b[k].copy() for b in params.biases],
                shape.output_activation,
            ),
            [float(v) for v in history[:, k]],
        )
        for k in range(count)
    ]


def derived_seed(base: int, *keys: int) -> int:
    """A deterministic 64-bit sub-seed from a base seed and integer keys."""
    seq = np.random.SeedSequence([int(base) & 0xFFFFFFFFFFFFFFFF, *[int(k) for k in keys]])
    return int(seq.generate_state(1, np.uint64)[0])
