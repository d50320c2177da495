"""Slow-feature pre-detection and cluster-based training-sample selection.

Fits a slow-feature transform to a co-registered image pair, scores every
pixel by the standardized squared projected difference, clusters the scores
with a deterministic 1-D K-means, and draws aligned training pairs from the
lowest-score cluster (the pixels most likely to be unchanged background).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import IntensityMap, _check_pair
from .errors import NumericalError, ValidationError
from .linalg import generalized_eigh, mean_cov
from .neural import SampleSet

logger = logging.getLogger(__name__)

_EIGENVALUE_FLOOR = 1e-12
_KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class UsfaModel:
    """Slow-feature directions fitted to an image pair.

    `projection` rows are the retained generalized eigenvectors (slowest
    first); `eigenvalues` are the matching generalized eigenvalues in
    ascending order. `fallback` records that no eigenvalue satisfied the
    lambda < 1 retention rule and the single slowest component was kept
    instead. `standardization` names the score scaling so downstream
    artifacts can state how intensities were normalized.
    """

    projection: np.ndarray  # (K, Q)
    eigenvalues: np.ndarray  # (K,) ascending
    mean_x: np.ndarray  # (Q,)
    mean_y: np.ndarray  # (Q,)
    fallback: bool = False
    standardization: str = "eigenvalue-scaled"

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.float64)
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        mx = np.asarray(self.mean_x, dtype=np.float64)
        my = np.asarray(self.mean_y, dtype=np.float64)
        if proj.ndim != 2 or proj.shape[0] < 1:
            raise ValidationError("projection must be a K x Q matrix with K >= 1")
        if vals.shape != (proj.shape[0],):
            raise ValidationError("eigenvalues must match the projection row count")
        if np.any(np.diff(vals) < 0):
            raise ValidationError("eigenvalues must be ascending")
        if not self.fallback and np.any(vals >= 1.0):
            raise ValidationError("retained eigenvalues must satisfy lambda < 1")
        if mx.shape != (proj.shape[1],) or my.shape != (proj.shape[1],):
            raise ValidationError("mean vectors must have length Q")
        for name, arr in (("projection", proj), ("eigenvalues", vals), ("mean_x", mx), ("mean_y", my)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "mean_x", mx)
        object.__setattr__(self, "mean_y", my)

    @property
    def n_components(self) -> int:
        return self.projection.shape[0]


@dataclass(frozen=True)
class ClusterResult:
    """1-D K-means result: ascending centers and per-value cluster indices."""

    centers: np.ndarray
    assignments: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if centers.ndim != 1 or centers.size < 1:
            raise ValidationError("centers must be a non-empty vector")
        if np.any(np.diff(centers) <= 0):
            raise ValidationError("centers must be strictly ascending")
        if assignments.ndim != 1:
            raise ValidationError("assignments must be a flat index vector")
        if assignments.size and (assignments.min() < 0 or assignments.max() >= centers.size):
            raise ValidationError("assignments reference nonexistent clusters")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "assignments", assignments)

    @property
    def k(self) -> int:
        return self.centers.size


def usfa_fit(x: np.ndarray, y: np.ndarray, ridge: float | None = None) -> UsfaModel:
    """Fit slow-feature directions to the pair of (M, Q) pixel matrices.

    Solves cov(x - y) w = lambda * ((cov(x) + cov(y)) / 2) w after per-image
    mean centering and keeps the components with lambda < 1 — the directions
    along which the two acquisitions vary more slowly than within themselves.
    If no eigenvalue qualifies, the single slowest component is kept and the
    model is flagged as a fallback.
    """
    x, y = _check_pair(x, y)
    stats_x = mean_cov(x)
    stats_y = mean_cov(y)
    stats_d = mean_cov(x - y)
    slow = stats_d.cov
    shared = 0.5 * (stats_x.cov + stats_y.cov)
    values, vectors = generalized_eigh(slow, shared, ridge)
    keep = values < 1.0
    fallback = not bool(np.any(keep))
    if fallback:
        keep = np.zeros_like(keep)
        keep[0] = True
    return UsfaModel(
        projection=vectors[:, keep].T,
        eigenvalues=values[keep],
        mean_x=stats_x.mean,
        mean_y=stats_y.mean,
        fallback=fallback,
    )


def usfa_intensity(
    model: UsfaModel, x: np.ndarray, y: np.ndarray, shape: tuple[int, int]
) -> IntensityMap:
    """Per-pixel change score under a fitted model, reshaped to (H, W).

    score_i = sum_k [p_k . ((x_i - mu_x) - (y_i - mu_y))]^2 / max(lambda_k, 1e-12),
    a chi-square-style statistic over the retained slow features. Identical
    inputs therefore score exactly zero.
    """
    x, y = _check_pair(x, y)
    if x.shape[1] != model.projection.shape[1]:
        raise ValidationError(
            f"model expects {model.projection.shape[1]} bands, got {x.shape[1]}"
        )
    height, width = int(shape[0]), int(shape[1])
    if height * width != x.shape[0]:
        raise ValidationError(f"shape {shape} does not cover {x.shape[0]} pixels")
    diff = (x - model.mean_x) - (y - model.mean_y)
    projected = diff @ model.projection.T
    scale = np.maximum(model.eigenvalues, _EIGENVALUE_FLOOR)
    scores = np.sum(projected * projected / scale, axis=1)
    return IntensityMap(scores.reshape(height, width))


def _init_centers(values: np.ndarray, k: int) -> np.ndarray:
    quantiles = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    return np.quantile(values, quantiles)


def kmeans_1d(values: np.ndarray, k: int) -> ClusterResult:
    """Lloyd's algorithm on scalars with deterministic quantile seeding.

    Centers start at the (2j+1)/(2k) quantiles, so runs are reproducible
    without randomness. An emptied cluster is re-seeded at the value
    farthest from its currently assigned center. Stops when the assignment
    is stable or after 300 iterations.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size < k or np.unique(flat).size < k:
        raise ValidationError(f"need at least {k} distinct values, got {np.unique(flat).size}")
    centers = _init_centers(flat, k)
    assignments = np.full(flat.size, -1, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        distances = np.abs(flat[:, np.newaxis] - centers[np.newaxis, :])
        new_assignments = np.argmin(distances, axis=1)
        for cluster in range(k):
            if not np.any(new_assignments == cluster):
                residual = np.abs(flat - centers[new_assignments])
                outlier = int(np.argmax(residual))
                centers[cluster] = flat[outlier]
                new_assignments[outlier] = cluster
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            centers[cluster] = flat[assignments == cluster].mean()
    order = np.argsort(centers, kind="stable")
    if np.unique(centers).size != k:
        raise NumericalError("clustering collapsed to duplicate centers")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return ClusterResult(centers[order], rank[assignments])


def default_sample_count(n_pixels: int) -> int:
    """min(10000, ceil(6% of the scene)) — proportionate at desk scale."""
    if n_pixels < 1:
        raise ValidationError(f"n_pixels must be >= 1, got {n_pixels}")
    return min(10000, math.ceil(0.06 * n_pixels))


def select_samples(
    x: np.ndarray,
    y: np.ndarray,
    intensity: IntensityMap,
    count: int,
    seed: int = 0,
) -> SampleSet:
    """Draw aligned training pairs from the lowest-intensity cluster.

    Clusters the intensity values into three groups, treats the cluster with
    the smallest center as the unchanged-background pool, and samples
    min(count, pool size) pixel indices uniformly without replacement.
    Row i of the returned inputs and labels always comes from the same pixel.
    Scores with fewer than three distinct values (an identical or noise-free
    pair) cannot be split into background and change, and raise
    NumericalError.
    """
    x, y = _check_pair(x, y)
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    scores = intensity.values.ravel()
    if scores.size != x.shape[0]:
        raise ValidationError(
            f"intensity covers {scores.size} pixels, matrices have {x.shape[0]}"
        )
    distinct = np.unique(scores).size
    if distinct < 3:
        raise NumericalError(
            f"change intensity takes only {distinct} distinct value(s): the pair shows "
            "no change structure to cluster into background and change"
        )
    clusters = kmeans_1d(scores, k=3)
    pool = np.flatnonzero(clusters.assignments == 0)
    if pool.size == 0:
        raise NumericalError("lowest-score cluster is empty")
    take = min(count, pool.size)
    if count > pool.size:
        logger.warning(
            "requested %d samples but the background pool holds %d; using the whole pool",
            count,
            pool.size,
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(pool, size=take, replace=False))
    return SampleSet(x[chosen], y[chosen], indices=chosen)
