"""Slow-feature pre-detection and cluster-based training-sample selection.

Fits a slow-feature transform to a co-registered image pair, scores every
pixel as Diff-RX restricted to the slow features, clusters the scores with
a deterministic 1-D K-means, and draws aligned training pairs from the
lowest-score cluster (the pixels most likely to be unchanged background).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IntensityMap, _check_pair, _distinct, _quantile, _require_int
from .errors import NumericalError, ValidationError
from .linalg import _whitened_norms, generalized_eigh, mean_cov
from .neural import SampleSet

_EIGENVALUE_FLOOR = 1e-12
_KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class UsfaModel:
    """Slow-feature directions fitted to an image pair.

    `projection` rows are the retained generalized eigenvectors (slowest
    first); `eigenvalues` are the matching generalized eigenvalues in
    ascending order; `mean` is the mean of the difference x - y. `fallback`
    records that no eigenvalue satisfied the lambda < 1 retention rule and
    the single slowest component was kept instead.
    """

    projection: np.ndarray  # (K, Q)
    eigenvalues: np.ndarray  # (K,) ascending
    mean: np.ndarray  # (Q,)
    fallback: bool = False

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.float64)
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64)
        if proj.ndim != 2 or proj.shape[0] < 1:
            raise ValidationError("projection must be a K x Q matrix with K >= 1")
        if vals.shape != (proj.shape[0],):
            raise ValidationError("eigenvalues must match the projection row count")
        if np.any(np.diff(vals) < 0):
            raise ValidationError("eigenvalues must be ascending")
        if not self.fallback and np.any(vals >= 1.0):
            raise ValidationError("retained eigenvalues must satisfy lambda < 1")
        if mean.shape != (proj.shape[1],):
            raise ValidationError("mean vector must have length Q")
        for name, arr in (("projection", proj), ("eigenvalues", vals), ("mean", mean)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True)
class ClusterResult:
    """1-D K-means result: ascending centers and per-value cluster indices."""

    centers: np.ndarray
    assignments: np.ndarray


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
    slow = mean_cov(x, minus=y)
    shared = 0.5 * (stats_x.cov + stats_y.cov)
    values, vectors = generalized_eigh(slow.cov, shared, ridge)
    keep = values < 1.0
    fallback = not bool(np.any(keep))
    if fallback:
        keep = np.zeros_like(keep)
        keep[0] = True
    return UsfaModel(
        projection=vectors[:, keep].T,
        eigenvalues=values[keep],
        mean=slow.mean,
        fallback=fallback,
    )


def usfa_intensity(
    model: UsfaModel, x: np.ndarray, y: np.ndarray, shape: tuple[int, int]
) -> IntensityMap:
    """Per-pixel change score under a fitted model, reshaped to (H, W).

    score_i = sum_k [p_k . (d_i - mu_d)]^2 / max(lambda_k, 1e-12) with d = x - y:
    Diff-RX restricted to the retained slow features, scored by
    `linalg._whitened_norms` with whitener column k = p_k / sqrt(max(lambda_k, 1e-12)).
    With all Q components kept it is the Diff-RX score, since
    V diag(1/lambda) V^T = cov(x - y)^-1. Identical inputs score exactly zero.
    """
    x, y = _check_pair(x, y)
    if x.shape[1] != model.projection.shape[1]:
        raise ValidationError(
            f"model expects {model.projection.shape[1]} bands, got {x.shape[1]}"
        )
    whitener = model.projection.T / np.sqrt(np.maximum(model.eigenvalues, _EIGENVALUE_FLOOR))
    return _whitened_norms(x, y, model.mean, whitener, shape)


def _init_centers(values: np.ndarray, k: int) -> np.ndarray:
    quantiles = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    return _quantile(values, quantiles)


def kmeans_1d(values: np.ndarray, k: int) -> ClusterResult:
    """Lloyd's algorithm on scalars with deterministic quantile seeding.

    Centers start at the (2j+1)/(2k) quantiles, so runs are reproducible
    without randomness. Each value joins its nearest center, the first one
    on a tie. An emptied cluster is re-seeded at the value farthest from its
    currently assigned center, among the values whose cluster keeps another
    member. Stops when the assignment is stable or after 300 iterations.
    NaN or Inf values raise ValidationError.
    """
    if _require_int(k, "k") < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValidationError("values to cluster contain NaN or Inf entries")
    distinct = _distinct(flat).size
    if distinct < k:
        raise ValidationError(f"need at least {k} distinct values, got {distinct}")
    centers = _init_centers(flat, k)
    assignments = np.full(flat.size, -1, dtype=np.int64)
    nearest = np.empty_like(assignments)
    best = np.empty_like(flat)
    distance = np.empty_like(flat)
    closer = np.empty(flat.size, dtype=bool)
    for _ in range(_KMEANS_MAX_ITER):
        nearest.fill(0)
        np.abs(np.subtract(flat, centers[0], out=best), out=best)
        for cluster in range(1, k):
            np.abs(np.subtract(flat, centers[cluster], out=distance), out=distance)
            np.less(distance, best, out=closer)  # strict, so the first of tied centers wins
            np.putmask(nearest, closer, cluster)
            np.minimum(best, distance, out=best)
        sizes = np.bincount(nearest, minlength=k)
        for cluster in np.flatnonzero(sizes == 0):
            residual = np.abs(flat - centers[nearest])
            # never take a cluster's last member, or that cluster empties instead
            residual[sizes[nearest] < 2] = -1.0
            outlier = int(np.argmax(residual))
            sizes[nearest[outlier]] -= 1
            sizes[cluster] = 1
            centers[cluster] = flat[outlier]
            nearest[outlier] = cluster
        if np.array_equal(nearest, assignments):
            break
        assignments, nearest = nearest, assignments
        for cluster in range(k):
            # the same values as flat[assignments == cluster], gathered faster
            centers[cluster] = np.compress(assignments == cluster, flat).mean()
    order = np.argsort(centers, kind="stable")
    if _distinct(centers).size != k:
        raise NumericalError("clustering collapsed to duplicate centers")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return ClusterResult(centers[order], rank[assignments])


def default_sample_count(n_pixels: int) -> int:
    """min(10000, ceil(6% of the scene)) — proportionate at desk scale."""
    if _require_int(n_pixels, "n_pixels") < 1:
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
    if _require_int(count, "count") < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    scores = intensity.values.ravel()
    if scores.size != x.shape[0]:
        raise ValidationError(
            f"intensity covers {scores.size} pixels, matrices have {x.shape[0]}"
        )
    distinct = _distinct(scores).size
    if distinct < 3:
        raise NumericalError(
            f"change intensity takes only {distinct} distinct value(s): the pair shows "
            "no change structure to cluster into background and change"
        )
    clusters = kmeans_1d(scores, k=3)
    pool = np.flatnonzero(clusters.assignments == 0)
    if pool.size == 0:
        raise NumericalError("lowest-score cluster is empty")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(pool, size=min(count, pool.size), replace=False))
    return SampleSet(x, y, chosen)
