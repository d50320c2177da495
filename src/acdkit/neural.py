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
"""

from __future__ import annotations

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
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
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
    """First/second moment accumulators and the step counter."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0


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
        current = current @ np.swapaxes(w, -1, -2) + b[..., np.newaxis, :]
        if i < last or relu_output:
            current = np.maximum(current, 0.0)
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


def _loss_and_grads(weights, biases, relu_output: bool, inputs, labels, l2_lambda: float):
    """`loss` and `backward` in one pass on raw arrays, one net or N stacked nets.

    Returns the loss (a 0-d array for one net, shape (N,) for N nets) and the
    weight and bias gradient lists. Each net's squared residual is summed
    over its whole (B, out) block, in the same order as `loss` sums it.
    """
    out, acts = _forward(weights, biases, relu_output, inputs)
    size = inputs.shape[-2]
    residual = out - labels
    value = np.sum(residual * residual, axis=(-2, -1)) / size
    value = value + l2_lambda * sum(np.sum(w * w, axis=(-2, -1)) for w in weights)

    delta = (2.0 / size) * residual
    if relu_output:
        delta = delta * (acts[-1] > 0.0)
    grad_w = [None] * len(weights)
    grad_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = np.swapaxes(delta, -1, -2) @ acts[i] + 2.0 * l2_lambda * weights[i]
        grad_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ weights[i]) * (acts[i] > 0.0)
    return value, grad_w, grad_b


def backward(params: MlpParams, batch: SampleSet, l2_lambda: float) -> MlpParams:
    """Exact gradient of `loss` w.r.t. every weight and bias.

    ReLU uses the zero subgradient at 0. The return value reuses MlpParams
    as a container of gradient arrays with matching shapes.
    """
    if batch.size == 0:
        raise ValidationError("gradient of an empty batch is undefined")
    _, grad_w, grad_b = _loss_and_grads(
        params.weights,
        params.biases,
        params.output_activation == "relu",
        batch.inputs,
        batch.labels,
        l2_lambda,
    )
    return MlpParams(grad_w, grad_b, params.output_activation)


def _zero_state(weights, biases) -> AdamState:
    return AdamState(
        m_weights=[np.zeros_like(w) for w in weights],
        v_weights=[np.zeros_like(w) for w in weights],
        m_biases=[np.zeros_like(b) for b in biases],
        v_biases=[np.zeros_like(b) for b in biases],
    )


def init_adam_state(params: MlpParams) -> AdamState:
    return _zero_state(params.weights, params.biases)


def _adam_update(weights, biases, grad_w, grad_b, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update on raw arrays, one net or N stacked nets."""
    b1, b2, eps, lr = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS, config.learning_rate
    t = state.step + 1
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    def update(params, grads, moments1, moments2):
        new_p, new_m, new_v = [], [], []
        for p, g, m, v in zip(params, grads, moments1, moments2):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            new_p.append(p - lr * (m / corr1) / (np.sqrt(v / corr2) + eps))
            new_m.append(m)
            new_v.append(v)
        return new_p, new_m, new_v

    new_w, new_mw, new_vw = update(weights, grad_w, state.m_weights, state.v_weights)
    new_b, new_mb, new_vb = update(biases, grad_b, state.m_biases, state.v_biases)
    return new_w, new_b, AdamState(new_mw, new_vw, new_mb, new_vb, t)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, config: TrainConfig
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state."""
    if [w.shape for w in grads.weights] != [w.shape for w in params.weights]:
        raise ValidationError("gradient shapes do not match parameter shapes")
    new_w, new_b, new_state = _adam_update(
        params.weights, params.biases, grads.weights, grads.biases, state, config
    )
    return MlpParams(new_w, new_b, params.output_activation), new_state


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
    src = np.array([a for a, _ in roles])[:, np.newaxis]
    dst = np.array([b for _, b in roles])[:, np.newaxis]

    rngs = [np.random.default_rng(seed) for seed in seeds]
    inits = [_he_init(shape, rng) for rng in rngs]
    weights = [np.stack(layer) for layer in zip(*(w for w, _ in inits))]
    biases = [np.stack(layer) for layer in zip(*(b for _, b in inits))]
    state = _zero_state(weights, biases)
    relu_output = shape.output_activation == "relu"
    history = np.empty((config.epochs, count))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = np.stack([rng.permutation(size) for rng in rngs])
            batch_losses = []
            for start in range(0, size, config.batch_size):
                idx = order[:, start : start + config.batch_size]
                value, grad_w, grad_b = _loss_and_grads(
                    weights, biases, relu_output,
                    inputs[src, idx], labels[dst, idx], config.l2_lambda,
                )
                weights, biases, state = _adam_update(
                    weights, biases, grad_w, grad_b, state, config
                )
                batch_losses.append(value)
            # (N, batches), reduced along rows: the same sum order as one net's np.mean
            history[epoch] = np.mean(np.stack(batch_losses, axis=1), axis=1)
            diverged = np.flatnonzero(~np.isfinite(history[epoch]))
            if diverged.size:
                raise NumericalError(
                    f"{names[diverged[0]]}: training loss is non-finite at epoch {epoch} "
                    f"(learning_rate={config.learning_rate})"
                )
    return [
        (
            MlpParams([w[k] for w in weights], [b[k] for b in biases], shape.output_activation),
            [float(v) for v in history[:, k]],
        )
        for k in range(count)
    ]


def derived_seed(base: int, *keys: int) -> int:
    """A deterministic 64-bit sub-seed from a base seed and integer keys."""
    seq = np.random.SeedSequence([int(base) & 0xFFFFFFFFFFFFFFFF, *[int(k) for k in keys]])
    return int(seq.generate_state(1, np.uint64)[0])
