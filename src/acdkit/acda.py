"""Dual-predictor anomaly change detection on co-registered hyperspectral pairs.

Two bottleneck networks are trained on pre-detected unchanged pixels — one
predicting the second acquisition from the first, one the reverse. Each
direction yields a per-pixel MSE loss map; their elementwise minimum is the
change intensity, and repeated runs with fresh initializations are averaged
to stabilize it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HyperCube, IntensityMap, _check_cubes, _require_int, flatten
from .errors import ValidationError
from .neural import (
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    derived_seed,
    forward_batch,
    train_lockstep,
)
from .predetect import default_sample_count, select_samples, usfa_fit, usfa_intensity

_PREDICT_CHUNK = 65536


def default_shape(bands: int) -> NetworkShape:
    """Mirrored bottleneck scaled from the 127-band reference widths 60/40.

    h1 = round(bands * 60/127), h2 = round(bands * 40/127), clamped so the
    result still satisfies h2 < h1 < bands.
    """
    if bands < 3:
        raise ValidationError(f"need at least 3 bands for a bottleneck, got {bands}")
    h1 = max(2, min(round(bands * 60 / 127), bands - 1))
    h2 = max(1, min(round(bands * 40 / 127), h1 - 1))
    return NetworkShape.bottleneck(bands, h1, h2)


@dataclass(frozen=True)
class AcdaConfig:
    """Run-level settings: network shape, training, sampling, and repeats.

    `shape=None` derives the scaled bottleneck from the cube's band count at
    run time; `sample_count=None` uses the 6%-of-scene default.
    """

    shape: NetworkShape | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    sample_count: int | None = None
    repeats: int = 10
    base_seed: int = 0

    def __post_init__(self):
        _require_int(self.repeats, "repeats")
        _require_int(self.base_seed, "base_seed")
        if self.sample_count is not None:
            _require_int(self.sample_count, "sample_count")
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.shape is not None:
            self.shape.require_bottleneck()

    def resolved_shape(self, bands: int) -> NetworkShape:
        if self.shape is None:
            return default_shape(bands)
        if self.shape.input_dim != bands:
            raise ValidationError(
                f"configured shape expects {self.shape.input_dim} bands, cubes have {bands}"
            )
        return self.shape


@dataclass(frozen=True)
class AcdaRun:
    """One repeat: both predictors, both loss maps, and their min fusion."""

    params_fwd: MlpParams
    params_bwd: MlpParams
    loss_map_fwd: IntensityMap
    loss_map_bwd: IntensityMap
    fused: IntensityMap
    training_losses: tuple[tuple[float, ...], tuple[float, ...]]


def predict_image(params: MlpParams, img: np.ndarray) -> np.ndarray:
    """Row-wise forward pass over an (M, Q) pixel matrix, chunked for memory."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[1] != params.input_dim:
        raise ValidationError(
            f"image shape {img.shape} does not match network input {params.input_dim}"
        )
    blocks = []
    for start in range(0, img.shape[0], _PREDICT_CHUNK):
        out, _ = forward_batch(params, img[start : start + _PREDICT_CHUNK])
        blocks.append(out)
    return np.concatenate(blocks, axis=0) if blocks else np.empty_like(img)


def loss_map(
    predicted: np.ndarray, expected: np.ndarray, shape: tuple[int, int]
) -> IntensityMap:
    """Per-pixel mean squared error over bands, reshaped to (H, W)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if predicted.shape != expected.shape or predicted.ndim != 2:
        raise ValidationError(
            f"matrices disagree: {predicted.shape} vs {expected.shape}"
        )
    height, width = int(shape[0]), int(shape[1])
    if height * width != predicted.shape[0]:
        raise ValidationError(f"shape {shape} does not cover {predicted.shape[0]} pixels")
    per_pixel = np.mean((predicted - expected) ** 2, axis=1)
    return IntensityMap(per_pixel.reshape(height, width))


def fuse_min(i1: IntensityMap, i2: IntensityMap) -> IntensityMap:
    """Elementwise minimum of two loss maps."""
    if i1.values.shape != i2.values.shape:
        raise ValidationError(
            f"maps disagree: {i1.values.shape} vs {i2.values.shape}"
        )
    return IntensityMap(np.minimum(i1.values, i2.values))


def prepare_samples(x_cube: HyperCube, y_cube: HyperCube, cfg: AcdaConfig) -> SampleSet:
    """Pre-detection step: slow-feature scoring, clustering, pool sampling."""
    _check_cubes(x_cube, y_cube)
    x = flatten(x_cube)
    y = flatten(y_cube)
    model = usfa_fit(x, y)
    intensity = usfa_intensity(model, x, y, (x_cube.height, x_cube.width))
    count = cfg.sample_count or default_sample_count(x.shape[0])
    return select_samples(x, y, intensity, count, seed=cfg.base_seed)


def run_acda(
    x_cube: HyperCube,
    y_cube: HyperCube,
    cfg: AcdaConfig,
    samples: SampleSet | None = None,
) -> tuple[IntensityMap, list[AcdaRun]]:
    """Full pipeline: sample once, train both directions per repeat, fuse, average.

    Repeat r derives its two training seeds from base_seed + r
    (`derived_seed(base_seed + r, 0)` for x -> y, `..., 1)` for y -> x), so
    every repeat starts from fresh weights while the whole run stays
    reproducible. All 2 x repeats predictors train together in one
    `train_lockstep` call on the rows of `samples`; each equals the net
    that a step-by-step loop over `loss`, `backward` and `adam_step` trains
    from its seed, bit for bit. The mean map is the pixelwise average of
    the fused maps, accumulated in repeat order, so reruns are
    bit-identical. A predictor whose training loss turns non-finite raises
    NumericalError naming its repeat, direction and epoch.
    """
    _check_cubes(x_cube, y_cube)
    if samples is None:
        samples = prepare_samples(x_cube, y_cube, cfg)
    x = flatten(x_cube)
    y = flatten(y_cube)
    plane = (x_cube.height, x_cube.width)

    pair = np.stack([samples.inputs, samples.labels])
    # direction 0 maps pool 0 (x) to pool 1 (y), direction 1 the reverse
    nets = [(r, direction) for r in range(cfg.repeats) for direction in (0, 1)]
    trained = train_lockstep(
        cfg.resolved_shape(x_cube.bands),
        pair,
        pair,
        [(direction, 1 - direction) for _, direction in nets],
        [derived_seed(cfg.base_seed + r, direction) for r, direction in nets],
        cfg.train,
        [f"repeat {r} {('fwd', 'bwd')[direction]} predictor" for r, direction in nets],
    )

    runs = []
    for r in range(cfg.repeats):
        (params_fwd, hist_fwd), (params_bwd, hist_bwd) = trained[2 * r : 2 * r + 2]
        map_fwd = loss_map(predict_image(params_fwd, x), y, plane)
        map_bwd = loss_map(predict_image(params_bwd, y), x, plane)
        runs.append(
            AcdaRun(
                params_fwd=params_fwd,
                params_bwd=params_bwd,
                loss_map_fwd=map_fwd,
                loss_map_bwd=map_bwd,
                fused=fuse_min(map_fwd, map_bwd),
                training_losses=(tuple(hist_fwd), tuple(hist_bwd)),
            )
        )

    total = np.zeros_like(runs[0].fused.values)
    for run in runs:
        total += run.fused.values
    mean_map = IntensityMap(total / cfg.repeats)
    return mean_map, runs
