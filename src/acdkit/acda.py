"""Dual-predictor anomaly change detection on co-registered hyperspectral pairs.

Two bottleneck networks are trained on pre-detected unchanged pixels — one
predicting the second acquisition from the first, one the reverse. Each
direction yields a per-pixel MSE loss map; their elementwise minimum is the
change intensity, and repeated runs with fresh initializations are averaged
to stabilize it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    HyperCube,
    IntensityMap,
    _check_cubes,
    _float_matrix,
    _require_int,
    flatten,
    fuse_min,
    loss_map,
)
from .errors import NumericalError, ValidationError
from .neural import (
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    _layers,
    derived_seed,
    train_lockstep,
)
from .predetect import default_sample_count, select_samples, usfa_fit, usfa_intensity


def bottleneck(bands: int, h1: int | None = None, h2: int | None = None) -> NetworkShape:
    """The predictor shape, a mirrored bottleneck Q -> h1 -> h2 -> h1 -> Q.

    With both widths unset they are scaled from the 127-band reference
    widths 60/40: h1 = round(bands * 60/127), h2 = round(bands * 40/127),
    clamped so the result still satisfies h2 < h1 < bands. Set widths must
    be integers with 0 < h2 < h1 < bands.
    """
    if h1 is None and h2 is None:
        if bands < 3:
            raise ValidationError(f"need at least 3 bands for a bottleneck, got {bands}")
        h1 = max(2, min(round(bands * 60 / 127), bands - 1))
        h2 = max(1, min(round(bands * 40 / 127), h1 - 1))
    else:
        h1, h2 = _require_int(h1, "h1"), _require_int(h2, "h2")
        if not 0 < h2 < h1 < bands:
            raise ValidationError(
                f"h1={h1}, h2={h2} do not form a bottleneck for {bands} bands "
                "(need 0 < h2 < h1 < bands)"
            )
    return NetworkShape(bands, (h1, h2, h1), bands)


@dataclass(frozen=True, kw_only=True)
class AcdaConfig(TrainConfig):
    """The nine `detect acda` settings, by keyword only: `TrainConfig`'s four
    training ones, checked first, then bottleneck widths, sampling and repeats.

    Unset `h1`/`h2` (set both or neither) are scaled by `bottleneck` from the
    cube's band count; `sample_count=None` uses the 6%-of-scene default.
    """

    h1: int | None = None
    h2: int | None = None
    sample_count: int | None = None
    repeats: int = 10
    base_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if (self.h1 is None) != (self.h2 is None):
            raise ValidationError("h1 and h2 must be set together")
        for name in ("h1", "h2", "sample_count"):
            if getattr(self, name) is not None:
                _require_int(getattr(self, name), name)
        _require_int(self.repeats, "repeats")
        _require_int(self.base_seed, "base_seed")
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True)
class AcdaRun:
    """One repeat: both predictors, both loss maps, and their min fusion."""

    params_fwd: MlpParams
    params_bwd: MlpParams
    loss_map_fwd: IntensityMap
    loss_map_bwd: IntensityMap
    fused: IntensityMap
    training_losses: tuple[tuple[float, ...], tuple[float, ...]]


def predict_image(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    """Row-wise forward pass (`neural._layers`) over an (M, Q) pixel matrix.

    Only the layer being computed and its input are held. `core.loss_map`
    calls this on one row block at a time; a float32 block (a cube's
    storage) is widened to float64 by the first layer's product.
    """
    rows = _float_matrix(rows)
    if rows.ndim != 2 or rows.shape[1] != params.input_dim:
        raise ValidationError(
            f"image shape {rows.shape} does not match network input {params.input_dim}"
        )
    for out in _layers(params.weights, params.biases, rows):
        pass
    return out


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
    `train_lockstep` call on `samples.pool`, the (2, S, Q) array that holds
    the x and y rows once; each equals the net that a step-by-step loop
    over `loss`, `backward` and `adam_step` trains from its seed, bit for
    bit. The mean map is the pixelwise average of the fused maps,
    accumulated in repeat order, so reruns are bit-identical. A predictor whose training loss
    turns non-finite raises NumericalError naming its repeat, direction and
    epoch, and one whose loss map does so names its repeat and direction.
    """
    _check_cubes(x_cube, y_cube)
    if samples is None:
        samples = prepare_samples(x_cube, y_cube, cfg)
    x = flatten(x_cube)
    y = flatten(y_cube)
    plane = (x_cube.height, x_cube.width)

    # direction 0 maps block 0 (x) of the pool to block 1 (y), direction 1 the reverse
    nets = [(r, direction) for r in range(cfg.repeats) for direction in (0, 1)]
    names = [f"repeat {r} {('fwd', 'bwd')[direction]} predictor" for r, direction in nets]
    trained = train_lockstep(
        bottleneck(x_cube.bands, cfg.h1, cfg.h2),
        samples.pool,
        [(direction, 1 - direction) for _, direction in nets],
        [derived_seed(cfg.base_seed + r, direction) for r, direction in nets],
        cfg,
        names,
    )

    def score(i: int, source: np.ndarray, target: np.ndarray) -> IntensityMap:
        # Overflow shows up as a non-finite map, which names its net here.
        predict = functools.partial(predict_image, trained[i][0])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return loss_map(predict, source, target, plane)
        except NumericalError as exc:
            raise NumericalError(f"{names[i]}: {exc}") from exc

    runs = []
    for r in range(cfg.repeats):
        (params_fwd, hist_fwd), (params_bwd, hist_bwd) = trained[2 * r : 2 * r + 2]
        map_fwd = score(2 * r, x, y)
        map_bwd = score(2 * r + 1, y, x)
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
