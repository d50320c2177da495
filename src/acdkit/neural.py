"""From-scratch fully connected network engine for the spectral predictors.

Plain numpy, float64 throughout: He-normal init, ReLU hidden layers, a
linear output layer, squared-error loss with L2 weight decay, exact
reverse-mode gradients, Adam, and seeded mini-batch training.
Adam uses the constants recommended by Kingma & Ba (ICLR 2015): beta1 = 0.9,
beta2 = 0.999, eps = 1e-8; only the learning rate is configurable.
Everything is deterministic under a fixed seed.

The forward, gradient and Adam kernels are rank-polymorphic: the same code
runs one net on (out, in) weights and (B, in) batches, or N nets of one
shape stacked into (N, out, in) weights and (N, B, in) batches, which is how
`train_lockstep` trains many small nets with one batched matmul per layer.
`MlpParams` keeps the weights and biases of one net, or of N stacked nets,
in one contiguous float64 buffer: every weight block, layer by layer, then
every bias block. Gradients and both Adam moments share that layout.
Gradients are written into their buffer in place, and Adam is one in-place
pass over the flat buffers: 14 ufunc calls however many layers and nets it
updates. `train_lockstep` draws each epoch's permutations into one buffer and
each batch's row indices into two, and steps in buffers made once, so no step
allocates a batch-sized array. The per-net `backward` and `adam_step` run the
same kernels on one net, so there is one Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _float_matrix, _require_int, _require_number
from .errors import NumericalError, ValidationError

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths of a fully connected net: input -> hidden... -> output."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        hidden = tuple(_require_int(h, "hidden layer width") for h in self.hidden)
        object.__setattr__(self, "hidden", hidden)
        _require_int(self.input_dim, "input_dim")
        _require_int(self.output_dim, "output_dim")
        widths = (self.input_dim, *self.hidden, self.output_dim)
        if any(w < 1 for w in widths):
            raise ValidationError(f"all layer widths must be >= 1, got {widths}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)


class MlpParams:
    """The weights and biases of one net, or of N stacked nets, in one float64 buffer.

    Weight i is (out, in) for one net and (N, out, in) for N; bias i is (out,)
    or (N, out). The constructor copies them into `data`: every weight block,
    layer by layer, then every bias block. `weights` and `biases` are views
    into `data`, whose first `n_weights` entries are the weights.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ValidationError("weights and biases must be non-empty parallel lists")
        lead = weights[0].shape[:-2]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim not in (2, 3) or w.shape[:-2] != lead or b.shape != w.shape[:-1]:
                raise ValidationError(f"layer {i} has inconsistent shapes {w.shape}, {b.shape}")
            if i > 0 and w.shape[-1] != weights[i - 1].shape[-2]:
                raise ValidationError(
                    f"layer {i} input dim {w.shape[-1]} != previous output "
                    f"{weights[i - 1].shape[-2]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {i} contains non-finite entries")
        self.data = np.concatenate([a.ravel() for a in weights + biases])
        self.n_weights = sum(w.size for w in weights)
        views, start = [], 0
        for a in weights + biases:
            views.append(self.data[start : start + a.size].reshape(a.shape))
            start += a.size
        self.weights = views[: len(weights)]
        self.biases = views[len(weights) :]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-1]


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
    """Paired (input, label) spectra; row i of both sides comes from one pixel.

    The pairs are held once, in one float64 buffer `data`: the inputs, then
    the labels. `inputs` and `labels` are views into it, and with one width
    on both sides `pool` is the (2, S, Q) view that `train_lockstep` trains
    on, so training copies no sample. The constructor checks the shapes and
    finiteness of what it is given before it widens both into `data`.
    """

    inputs: np.ndarray  # (S, Q_in)
    labels: np.ndarray  # (S, Q_out)
    indices: np.ndarray | None = None  # source pixel rows, kept for audit
    data: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs = _float_matrix(self.inputs)
        labels = _float_matrix(self.labels)
        if inputs.ndim != 2 or labels.ndim != 2:
            raise ValidationError("sample inputs and labels must be 2-D matrices")
        if inputs.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"inputs have {inputs.shape[0]} rows, labels {labels.shape[0]}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(labels))):
            raise ValidationError("sample set contains non-finite values")
        data = np.empty(inputs.size + labels.size)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "inputs", data[: inputs.size].reshape(inputs.shape))
        object.__setattr__(self, "labels", data[inputs.size :].reshape(labels.shape))
        self.inputs[...] = inputs
        self.labels[...] = labels
        if self.indices is not None:
            object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def pool(self) -> np.ndarray:
        """`data` as a (2, S, Q) array: block 0 the inputs, block 1 the labels."""
        if self.inputs.shape != self.labels.shape:
            raise ValidationError(
                f"a sample pool needs one width, got inputs {self.inputs.shape} "
                f"and labels {self.labels.shape}"
            )
        return self.data.reshape(2, *self.inputs.shape)


@dataclass
class AdamState:
    """Adam's first/second moments, flat in the `MlpParams.data` layout, and the step count."""

    m: np.ndarray
    v: np.ndarray
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
    return MlpParams(*_he_init(shape, np.random.default_rng(seed)))


def _layers(weights, biases, x: np.ndarray, outs=None):
    """Yield each layer's output in turn, one net or N stacked nets (see module doc).

    Hidden layers are ReLU, the output layer linear. The generator holds
    only the layer it computes and that layer's input. With `outs`, layer i
    is written into the buffer `outs[i]` instead of a new array.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = np.matmul(x, w.swapaxes(-1, -2), out=None if outs is None else outs[i])
        x += b[..., np.newaxis, :]
        if i < last:
            np.maximum(x, 0.0, out=x)
        yield x


def loss(params: MlpParams, batch: SampleSet, l2_lambda: float) -> float:
    """Mean squared spectral norm plus L2 weight decay.

    (1/S) sum_i ||out_i - label_i||^2 + lambda * sum_j ||W_j||_F^2.
    The squared norm sums over bands without dividing by Q; biases are not
    regularized.
    """
    _check_batch(params, batch, "loss")
    for out in _layers(params.weights, params.biases, batch.inputs):
        pass
    data_term = float(np.sum((out - batch.labels) ** 2)) / batch.size
    reg_term = l2_lambda * sum(float(np.sum(w * w)) for w in params.weights)
    return data_term + reg_term


def _check_batch(params: MlpParams, batch: SampleSet, what: str) -> None:
    """Reject an empty batch, or one whose widths are not the net's input and output."""
    if batch.size == 0:
        raise ValidationError(f"{what} of an empty batch is undefined")
    widths = (batch.inputs.shape[1], batch.labels.shape[1])
    net = (params.input_dim, params.weights[-1].shape[-2])
    if widths != net:
        raise ValidationError(f"batch widths {widths} do not match input_dim and output {net}")


def _step_scratch(weights, lead: tuple[int, ...]) -> list[np.ndarray]:
    """Buffers for `_loss_and_grads` on a (*lead, in) batch.

    Each layer's output, then the squared residual, then each hidden
    layer's ReLU mask. `train_lockstep` reuses one set for every step.
    """
    outs = [np.empty((*lead, w.shape[-2])) for w in weights]
    masks = [np.empty(out.shape, dtype=bool) for out in outs[:-1]]
    return [*outs, np.empty_like(outs[-1]), *masks]


def _leading_rows(buffer: np.ndarray, rows: int) -> np.ndarray:
    """A C-contiguous (N, rows, ...) array over the start of an (N, B, ...) buffer, rows <= B."""
    count, full, *rest = buffer.shape
    return buffer.reshape(-1)[: buffer.size // full * rows].reshape(count, rows, *rest)


def _loss_and_grads(
    params: MlpParams, grads: MlpParams, inputs, labels, l2_lambda: float, scratch=None
):
    """`loss` and `backward` in one pass, one net or N stacked nets.

    Writes every gradient into `grads` (laid out like `params`) and returns
    the loss (a 0-d array for one net, shape (N,) for N nets). Each net's
    squared residual is summed over its whole (B, out) block, in the same
    order as `loss` sums it. `scratch` is a `_step_scratch` for this batch
    shape; without one, fresh buffers are made. Its squared-residual buffer
    may hold `labels`: they are read before it is written.
    """
    weights = params.weights
    layers = len(weights)
    scratch = scratch or _step_scratch(weights, inputs.shape[:-1])
    square, masks = scratch[layers], scratch[layers + 1 :]
    acts = [inputs, *_layers(weights, params.biases, inputs, scratch[:layers])]
    size = inputs.shape[-2]
    residual = np.subtract(acts[-1], labels, out=acts[-1])
    value = np.add.reduce(np.multiply(residual, residual, out=square), axis=(-2, -1)) / size
    value = value + l2_lambda * sum(np.add.reduce(w * w, axis=(-2, -1)) for w in weights)

    delta = np.multiply(residual, 2.0 / size, out=residual)
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=grads.weights[i])
        np.add.reduce(delta, axis=-2, out=grads.biases[i])
        if i > 0:
            # This is the last read of acts[i]: take its ReLU mask, then its buffer holds delta.
            mask = np.greater(acts[i], 0.0, out=masks[i - 1])
            delta = np.matmul(delta, weights[i], out=acts[i])
            delta *= mask
    # The L2 term 2 * lambda * W, added once over the whole weight slice.
    grad_w = grads.data[: grads.n_weights]
    grad_w += (2.0 * l2_lambda) * params.data[: params.n_weights]
    return value


def backward(params: MlpParams, batch: SampleSet, l2_lambda: float) -> MlpParams:
    """Exact gradient of `loss` w.r.t. every weight and bias.

    ReLU uses the zero subgradient at 0. The return value reuses MlpParams
    as a container of gradient arrays with matching shapes.
    """
    _check_batch(params, batch, "gradient")
    grads = MlpParams(params.weights, params.biases)  # every entry is overwritten
    _loss_and_grads(params, grads, batch.inputs, batch.labels, l2_lambda)
    return grads


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(np.zeros_like(params.data), np.zeros_like(params.data))


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
    if state.m.shape != params.data.shape or state.v.shape != params.data.shape:
        raise ValidationError("Adam state shapes do not match parameter shapes")
    new_params = MlpParams(params.weights, params.biases)
    new_state = AdamState(np.array(state.m), np.array(state.v), state.step)
    work = np.empty((2, params.data.size))
    _adam_update(new_params.data, grads.data, new_state, config.learning_rate, work)
    return new_params, new_state


def train_lockstep(
    shape: NetworkShape,
    pool: np.ndarray,
    roles: list[tuple[int, int]],
    seeds: list[int],
    config: TrainConfig,
    names: list[str],
) -> list[tuple[MlpParams, list[float]]]:
    """Train len(seeds) nets of one shape at once, one batched matmul per layer.

    `pool` (P, S, Q) holds P blocks of S sample rows, shared by every net:
    net k maps block roles[k][0] to block roles[k][1], and its batches are
    gathered from the pool, so no net gets a copy of its own. One pool has
    one width, so the shape must map Q bands to Q bands. Net k owns the
    generator `default_rng(seeds[k])`, which draws its He init and then one
    permutation per epoch, so a fixed seed yields a bit-identical run. The
    final short batch of each epoch is trained on like any other. Each
    net's weights and losses are bit-identical to training it alone, one
    batch at a time, through `loss`, `backward` and `adam_step`.

    The parameters and gradients of all nets are two stacked `MlpParams`,
    and the Adam moments two flat buffers of their layout, allocated once:
    every step writes its gradients into theirs and then takes one in-place
    Adam pass over all of them. Each epoch's permutations fill one (N, S)
    buffer and each batch's input and label row indices two (N, B) buffers,
    made once like the gathered batches and every layer's activations, so
    no step allocates a batch-sized array.
    The sample pool is only read; each returned net owns a copy of its weights.

    Returns one (params, per-epoch losses) pair per net, in seed order; an
    epoch's loss is the mean of its mini-batch losses, each taken before
    its update. Each epoch's losses are checked once: the first non-finite
    one raises NumericalError naming its net (`names[k]`) and the epoch.
    Overflow on the way there is expected and raises no numpy warning.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 3:
        raise ValidationError(f"sample pool must be (P, S, Q), got {pool.shape}")
    size = pool.shape[1]
    if size == 0:
        raise ValidationError("cannot train on an empty sample set")
    width = pool.shape[2]
    if not shape.input_dim == shape.output_dim == width:
        raise ValidationError(
            f"shape {shape.layer_dims} does not match sample dims {width} -> {width}"
        )
    count = len(seeds)
    if count < 1 or len(roles) != count or len(names) != count:
        raise ValidationError(
            f"need one role and name per seed, got {len(roles)} roles, "
            f"{len(names)} names, {count} seeds"
        )
    if any(not (0 <= a < pool.shape[0] and 0 <= b < pool.shape[0]) for a, b in roles):
        raise ValidationError(f"roles {roles} index outside the sample pool")
    # Batches are gathered with np.take from the pool flattened to rows:
    # sample j of block p is row p * S + j.
    rows = pool.reshape(-1, width)
    src, dst = np.array(roles).T[:, :, np.newaxis] * size  # (N, 1) first rows of the blocks
    order = np.empty((count, size), dtype=np.int64)  # row k: net k's permutation this epoch

    rngs = [np.random.default_rng(seed) for seed in seeds]
    inits = [_he_init(shape, rng) for rng in rngs]
    params = MlpParams(
        [np.stack(layer) for layer in zip(*(w for w, _ in inits))],
        [np.stack(layer) for layer in zip(*(b for _, b in inits))],
    )
    del inits  # copied into params.data
    grads = MlpParams(params.weights, params.biases)  # every entry is overwritten
    state = init_adam_state(params)
    work = np.empty((2, params.data.size))
    history = np.empty((config.epochs, count))
    # The gathered inputs, the input and label row indices and the `_step_scratch` of a full
    # batch, made once; a shorter last batch uses the start of each buffer. The labels are
    # gathered into the squared-residual buffer.
    lead = (count, min(config.batch_size, size))
    buffers = [np.empty((*lead, width)), np.empty(lead, np.int64), np.empty(lead, np.int64)]
    buffers += _step_scratch(params.weights, lead)
    layers = len(params.weights)
    views = {}  # batch length -> the buffers cut to it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            for k, rng in enumerate(rngs):
                order[k] = rng.permutation(size)
            batch_losses = []
            for start in range(0, size, config.batch_size):
                batch = slice(start, start + config.batch_size)
                length = min(config.batch_size, size - start)
                if length not in views:
                    views[length] = [_leading_rows(b, length) for b in buffers]
                inputs, input_idx, label_idx, *scratch = views[length]
                labels = scratch[layers]
                np.add(order[:, batch], src, out=input_idx)
                np.add(order[:, batch], dst, out=label_idx)
                # The indices are in range by construction; mode="clip" lets
                # np.take write straight into `out` instead of a temporary.
                np.take(rows, input_idx, axis=0, out=inputs, mode="clip")
                np.take(rows, label_idx, axis=0, out=labels, mode="clip")
                value = _loss_and_grads(params, grads, inputs, labels, config.l2_lambda, scratch)
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
    # MlpParams copies net k out: nothing returned aliases the training buffers.
    return [
        (
            MlpParams([w[k] for w in params.weights], [b[k] for b in params.biases]),
            [float(v) for v in history[:, k]],
        )
        for k in range(count)
    ]


def derived_seed(base: int, *keys: int) -> int:
    """A deterministic 64-bit sub-seed from a base seed and integer keys."""
    seq = np.random.SeedSequence([int(base) & 0xFFFFFFFFFFFFFFFF, *[int(k) for k in keys]])
    return int(seq.generate_state(1, np.uint64)[0])
