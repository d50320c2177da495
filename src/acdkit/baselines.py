"""Classical linear change detectors: Diff-RX, Chronochrome, Covariance Equalization.

The two predictor baselines (CC, CE) are scored through the same per-pixel
MSE loss maps and min fusion as the network detector, so comparisons isolate
predictor quality rather than scoring conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HyperCube,
    IntensityMap,
    _check_cubes,
    _check_pair,
    _float_matrix,
    flatten,
    fuse_min,
    loss_map,
)
from .errors import ValidationError
from .linalg import _shifted_eigh, _whitened_norms, inv_sqrt, mean_cov, sym_sqrt

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
        x = _float_matrix(x)  # a float32 block is widened by the centering
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

    score_i = ||(d_i - mu_d) W||^2 with d = x - y and W = inv_sqrt(cov_d, ridge),
    the whitened RX of Reed & Yu (1990), scored by `linalg._whitened_norms`.
    The difference is formed one row block at a time, for its moments and
    for its scores, so no pixel-sized temporary is held. When
    that covariance is zero (identical inputs, or a difference that is
    exactly constant), W is zero and so is every score. Inputs that differ
    by a constant vector score zero only when the float32 subtraction is
    exact; otherwise the whitening scales its rounding noise up to unit
    variance, so `y = x + 0.3` on 8 x 8 x 5 pairs peaks at 10-29 (64 pixels
    can score at most 63).
    """
    x, y = _check_pair(x, y)
    stats = mean_cov(x, minus=y)
    whitener = inv_sqrt(stats.cov, ridge) if np.any(stats.cov) else np.zeros_like(stats.cov)
    return _whitened_norms(x, y, stats.mean, whitener, shape)


def fit_cc(x: np.ndarray, y: np.ndarray, ridge: float | None = None) -> LinearPredictor:
    """Least-squares affine predictor of y from x: gain = cov_yx (cov_xx + ridge I)^-1.

    The gain is formed from one eigendecomposition cov_xx = V diag(lambda) V^T
    as (cov_yx V) diag(1/(lambda + ridge)) V^T, checked as `inv_sqrt` checks
    its input; squaring the whitener instead would square its rounding error.
    """
    x, y = _check_pair(x, y)
    stats_x = mean_cov(x, cross=y)
    shifted, vectors = _shifted_eigh(stats_x.cov, ridge, "cov_xx")
    gain = (stats_x.cross.T @ vectors) / shifted @ vectors.T
    return LinearPredictor(gain, stats_x.mean, y.mean(axis=0, dtype=np.float64))


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
    forward = loss_map(fit(x, y, ridge).predict, x, y, plane)
    backward = loss_map(fit(y, x, ridge).predict, y, x, plane)
    return fuse_min(forward, backward)
