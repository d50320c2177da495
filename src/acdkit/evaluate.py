"""ROC/AUC scoring, display stretching, and artifact export for intensity maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GroundTruthMask, IntensityMap, _write_text, map_to_cube, write_cube, write_pgm
from .errors import ValidationError


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep of a scored map against ground truth.

    `thresholds` descend from +inf (the empty detection set) to the smallest
    score (everything detected); `far` and `dr` rise monotonically from
    (0, 0) to (1, 1). `auc` is the trapezoidal area under (far, dr).
    """

    thresholds: np.ndarray
    far: np.ndarray
    dr: np.ndarray
    auc: float

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        far = np.asarray(self.far, dtype=np.float64)
        dr = np.asarray(self.dr, dtype=np.float64)
        if not (thresholds.shape == far.shape == dr.shape) or thresholds.ndim != 1:
            raise ValidationError("thresholds, far, and dr must be equal-length vectors")
        if thresholds.size < 2:
            raise ValidationError("a curve needs at least its two endpoints")
        for name, arr in (("far", far), ("dr", dr)):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
            if np.any(np.diff(arr) < 0):
                raise ValidationError(f"{name} must be non-decreasing")
        if far[0] != 0.0 or dr[0] != 0.0 or far[-1] != 1.0 or dr[-1] != 1.0:
            raise ValidationError("curve must run from (0, 0) to (1, 1)")
        if np.any(np.diff(thresholds) >= 0):
            raise ValidationError("thresholds must be strictly descending")
        if not 0.0 <= self.auc <= 1.0:
            raise ValidationError(f"auc must lie in [0, 1], got {self.auc}")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "far", far)
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "auc", float(self.auc))

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(float(f), float(d)) for f, d in zip(self.far, self.dr)]


def roc(intensity: IntensityMap, truth: GroundTruthMask) -> RocCurve:
    """Sweep a threshold over every distinct score, grouping ties.

    A pixel is detected when its score >= threshold. FAR is the detected
    fraction of background pixels, DR the detected fraction of anomaly
    pixels. The trapezoidal area equals the Mann-Whitney statistic
    P(anomaly score > background score) + 0.5 P(equal).
    """
    if intensity.values.shape != truth.labels.shape:
        raise ValidationError(
            f"map {intensity.values.shape} and mask {truth.labels.shape} disagree"
        )
    if truth.anomaly_count == 0:
        raise ValidationError("ground truth marks no anomaly pixels")
    scores = intensity.values.ravel()
    labels = truth.labels.ravel()
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    distinct = np.unique(scores)[::-1]
    # count of scores >= t in a sorted-ascending array: size - searchsorted(left)
    tp = pos.size - np.searchsorted(pos, distinct, side="left")
    fp = neg.size - np.searchsorted(neg, distinct, side="left")
    thresholds = np.concatenate([[np.inf], distinct])
    dr = np.concatenate([[0.0], tp / pos.size])
    far = np.concatenate([[0.0], fp / neg.size])
    auc = float(np.sum(np.diff(far) * (dr[1:] + dr[:-1]) * 0.5))
    return RocCurve(thresholds, far, dr, auc)


def stretch2(intensity: IntensityMap) -> np.ndarray:
    """Clip to the 2nd/98th percentiles and scale linearly to 0..255.

    Percentiles interpolate linearly between order statistics; rounding is
    half away from zero. A constant map comes back all zeros.
    """
    values = intensity.values
    lo, hi = np.percentile(values, [2.0, 98.0])
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.uint8)
    scaled = (np.clip(values, lo, hi) - lo) / (hi - lo) * 255.0
    return np.floor(scaled + 0.5).astype(np.uint8)


def export_map(intensity: IntensityMap, path) -> None:
    """Write a map as a single-band header+raw cube (float32)."""
    write_cube(map_to_cube(intensity), path)


def export_map_pgm(intensity: IntensityMap, path) -> None:
    """Write the percentile-stretched 8-bit rendering of a map."""
    write_pgm(stretch2(intensity), path)


def export_curve(curve: RocCurve, path) -> None:
    """Write `threshold,far,dr` rows plus a trailing `# auc=` comment.

    Floats are written with full round-trip precision so a re-parse
    reproduces the points exactly; the auc comment uses 6 decimals.
    """
    lines = ["threshold,far,dr"]
    for t, f, d in zip(curve.thresholds, curve.far, curve.dr):
        lines.append(f"{float(t)!r},{float(f)!r},{float(d)!r}")
    lines.append(f"# auc={curve.auc:.6f}")
    _write_text(path, "\n".join(lines) + "\n", "curve")

