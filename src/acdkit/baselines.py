"""Classical linear change detectors: Diff-RX, Chronochrome, Covariance Equalization.

The two predictor baselines (CC, CE) are scored through the same per-pixel
MSE loss maps and min fusion as the network detector, so comparisons isolate
predictor quality rather than scoring conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acda import fuse_min, loss_map
from .core import HyperCube, IntensityMap, _check_cubes, _check_pair, flatten
from .errors import ValidationError
from .linalg import inv_sqrt, mean_cov, solve_spd, sym_sqrt

BASELINE_KINDS = ("cc", "ce")


@dataclass(frozen=True)
class LinearPredictor:
    """Affine cross-predictor: predict(x) = gain @ (x - mean_in) + mean_out."""

    gain: np.ndarray  # (Q, Q)
    mean_in: np.ndarray  # (Q,)
    mean_out: np.ndarray  # (Q,)

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=np.float64)
        mean_in = np.asarray(self.mean_in, dtype=np.float64)
        mean_out = np.asarray(self.mean_out, dtype=np.float64)
        if gain.ndim != 2 or gain.shape[0] != gain.shape[1]:
            raise ValidationError(f"gain must be square, got {gain.shape}")
        if mean_in.shape != (gain.shape[1],) or mean_out.shape != (gain.shape[0],):
            raise ValidationError("mean vectors do not match the gain dimensions")
        for name, arr in (("gain", gain), ("mean_in", mean_in), ("mean_out", mean_out)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "mean_in", mean_in)
        object.__setattr__(self, "mean_out", mean_out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.gain.shape[1]:
            raise ValidationError(
                f"input shape {x.shape} does not match gain {self.gain.shape}"
            )
        return (x - self.mean_in) @ self.gain.T + self.mean_out


def diff_rx(
    x: np.ndarray,
    y: np.ndarray,
    shape: tuple[int, int],
    ridge: float | None = None,
) -> IntensityMap:
    """Mahalanobis distance of each pixel's difference to the difference statistics.

    score_i = (d_i - mu_d)^T (cov_d + ridge I)^{-1} (d_i - mu_d) with
    d = x - y. Identical inputs (or inputs differing by a constant vector)
    score exactly zero.
    """
    x, y = _check_pair(x, y)
    height, width = int(shape[0]), int(shape[1])
    if height * width != x.shape[0]:
        raise ValidationError(f"shape {shape} does not cover {x.shape[0]} pixels")
    diff = x - y
    stats = mean_cov(diff)
    centered = diff - stats.mean
    if not np.any(centered):
        return IntensityMap(np.zeros((height, width)))
    solved = solve_spd(stats.cov, centered.T, ridge)
    scores = np.einsum("ij,ji->i", centered, solved)
    return IntensityMap(np.maximum(scores, 0.0).reshape(height, width))


def fit_cc(x: np.ndarray, y: np.ndarray, ridge: float | None = None) -> LinearPredictor:
    """Least-squares affine predictor of y from x: gain = cov_yx (cov_xx + ridge I)^{-1}."""
    x, y = _check_pair(x, y)
    stats_x = mean_cov(x)
    mean_y = y.mean(axis=0)
    cross_xy = (x - stats_x.mean).T @ (y - mean_y) / x.shape[0]  # cov_xy, (Q, Q)
    gain = solve_spd(stats_x.cov, cross_xy, ridge).T
    return LinearPredictor(gain, stats_x.mean, mean_y)


def fit_ce(x: np.ndarray, y: np.ndarray, ridge: float | None = None) -> LinearPredictor:
    """Whitening-based predictor: gain = cov_yy^{1/2} cov_xx^{-1/2} (symmetric roots).

    Predictions carry x's variability into y's covariance structure without
    assuming any cross-correlation between the acquisitions.
    """
    x, y = _check_pair(x, y)
    stats_x = mean_cov(x)
    stats_y = mean_cov(y)
    gain = sym_sqrt(stats_y.cov) @ inv_sqrt(stats_x.cov, ridge)
    return LinearPredictor(gain, stats_x.mean, stats_y.mean)


def baseline_map(
    pred: LinearPredictor,
    x: np.ndarray,
    y: np.ndarray,
    shape: tuple[int, int],
) -> IntensityMap:
    """Per-pixel MSE between pred(x) and y — the same scoring rule as loss_map."""
    x, y = _check_pair(x, y)
    return loss_map(pred.predict(x), y, shape)


def run_baseline(
    kind: str,
    x_cube: HyperCube,
    y_cube: HyperCube,
    ridge: float | None = None,
) -> IntensityMap:
    """Fit both directions of a linear baseline and min-fuse their loss maps."""
    if kind not in BASELINE_KINDS:
        raise ValidationError(f"kind must be one of {BASELINE_KINDS}, got '{kind}'")
    _check_cubes(x_cube, y_cube)
    x = flatten(x_cube)
    y = flatten(y_cube)
    plane = (x_cube.height, x_cube.width)
    fit = fit_cc if kind == "cc" else fit_ce
    forward = baseline_map(fit(x, y, ridge), x, y, plane)
    backward = baseline_map(fit(y, x, ridge), y, x, plane)
    return fuse_min(forward, backward)
