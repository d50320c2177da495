"""Dense symmetric linear algebra for the detectors.

Everything here computes in float64. Pixel matrices may be float32 (a
cube's storage); the moments and the whitened scorer widen them one row
block at a time. Eigendecompositions go through LAPACK (`np.linalg.eigh`)
with a fixed eigenvector sign convention, so reruns on one machine are
bit-identical. Covariance matrices from natural scenes are routinely
near-singular, so every inversion accepts a ridge; pass None to get the
default 1e-6 * trace / dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IntensityMap, _float_matrix, _pixel_map, _require_number, _row_blocks
from .errors import NumericalError, ValidationError

_SYMMETRY_RTOL = 1e-9
_EIGENVALUE_RTOL = 1e-12  # inv_sqrt floor on shifted eigenvalues, relative to max |lambda|
_PSD_TOL = 1e-8  # eigenvalues may undershoot zero by this fraction of the trace


@dataclass(frozen=True)
class Stats:
    """First and second moments of a pixel matrix (population normalization)."""

    mean: np.ndarray  # (Q,)
    cov: np.ndarray  # (Q, Q), symmetric PSD up to tolerance
    cross: np.ndarray | None = None  # (Q, Q) cross-covariance, when asked for


def _as_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    scale = np.abs(arr).max()
    if np.abs(arr - arr.T).max() > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValidationError(f"{name} is not symmetric within {_SYMMETRY_RTOL} relative")
    return (arr + arr.T) / 2.0


def default_ridge(a: np.ndarray) -> float:
    """Default regularization for inversions: 1e-6 * trace(A) / dim."""
    arr = np.asarray(a, dtype=np.float64)
    return 1e-6 * float(np.trace(arr)) / arr.shape[0]


def _require_ridge(value, name: str = "ridge") -> float:
    """Return `value` as a float, or raise ValidationError unless it is a finite number >= 0."""
    ridge = _require_number(value, name)
    if ridge < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return ridge


def _resolve_ridge(a: np.ndarray, ridge: float | None) -> float:
    return default_ridge(a) if ridge is None else _require_ridge(ridge)


def mean_cov(
    m: np.ndarray, minus: np.ndarray | None = None, cross: np.ndarray | None = None
) -> Stats:
    """Column means and population covariance (1/M) of an M x Q matrix, in row blocks.

    With `minus`, the moments are those of the difference m - minus, which
    is never formed whole. With `cross`, `Stats.cross` also holds the
    cross-covariance of the centered matrix with the uncentered `cross`:
    the centered columns sum to zero, so centering `cross` too would change
    only the rounding. Both passes of the two-pass algorithm (Chan, Golub &
    LeVeque, 1983) run over the `core._row_blocks` that scoring uses, so no
    pixel-sized temporary is held. `m` (and `minus`, `cross`) may be float32
    or float64 (see `core._float_matrix`); every block is widened to float64
    before any arithmetic, and a plain matrix's mean is
    `m.mean(axis=0, dtype=np.float64)`, so float32 storage changes no bit.
    """
    m = _float_matrix(m)
    if m.ndim != 2:
        raise ValidationError(f"pixel matrix must be 2-D, got shape {m.shape}")
    rows = m.shape[0]
    if rows < 2:
        raise ValidationError(f"need at least 2 rows for covariance, got {rows}")
    for name, other in (("minus", minus), ("cross", cross)):
        if other is not None and np.shape(other) != m.shape:
            raise ValidationError(f"{name} matrix {np.shape(other)} does not match {m.shape}")

    def rows_of(part: slice) -> np.ndarray:
        return m[part] if minus is None else np.subtract(m[part], minus[part], dtype=np.float64)

    if minus is None:
        mean = m.mean(axis=0, dtype=np.float64)
    else:
        mean = sum(rows_of(part).sum(axis=0) for part in _row_blocks(rows)) / rows
    cov = np.zeros((m.shape[1], m.shape[1]))
    cross_cov = None if cross is None else np.zeros_like(cov)
    for part in _row_blocks(rows):
        centered = rows_of(part) - mean
        cov += centered.T @ centered
        if cross is not None:
            cross_cov += centered.T @ cross[part]
    cov /= rows
    if cross is not None:
        cross_cov /= rows
    return Stats(mean=mean, cov=(cov + cov.T) / 2.0, cross=cross_cov)


def _whitened_norms(
    x: np.ndarray, y: np.ndarray, mean: np.ndarray, whitener: np.ndarray, shape: tuple[int, int]
) -> IntensityMap:
    """Squared norm of each row of ((x - y) - mean) @ whitener, as an (H, W) map.

    The difference is formed, centered and whitened one `core._pixel_map`
    block at a time, so no pixel-sized temporary is held.
    """

    def score(part: slice) -> np.ndarray:
        white = (np.subtract(x[part], y[part], dtype=np.float64) - mean) @ whitener
        return np.einsum("ij,ij->i", white, white)

    return _pixel_map(score, x.shape[0], shape)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Eigenvector signs are fixed so the largest-magnitude component of each
    column is positive, which keeps results reproducible.
    """
    sym = _as_symmetric(a, "eigh input")
    try:
        values, vectors = np.linalg.eigh(sym)  # LAPACK returns ascending order
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    anchor = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return values, vectors * signs


def _checked_psd_eigh(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = eigh(a)
    floor = -_PSD_TOL * max(float(np.trace(np.asarray(a, dtype=np.float64))), 0.0)
    if values[0] < floor:
        raise NumericalError(
            f"{name} is not positive semidefinite (min eigenvalue {values[0]:.3e})"
        )
    return values, vectors


def _shifted_eigh(a: np.ndarray, ridge: float | None, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda + ridge and eigenvectors V of a PSD matrix about to be inverted.

    Raises NumericalError unless `a` is PSD within tolerance and every
    shifted eigenvalue clears the floor, so V diag(1/(lambda + ridge)) V^T
    and its square root are safe to form.
    """
    sym = _as_symmetric(a, name)
    ridge_val = _resolve_ridge(sym, ridge)
    values, vectors = _checked_psd_eigh(sym, name)
    shifted = values + ridge_val
    floor = _EIGENVALUE_RTOL * max(float(np.abs(values).max()), 0.0)
    if np.any(shifted <= floor):
        raise NumericalError(
            f"eigenvalue {shifted.min():.3e} below tolerance floor after ridge {ridge_val:.3e}"
        )
    return shifted, vectors


def inv_sqrt(a: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Symmetric inverse square root V diag(1/sqrt(lambda + ridge)) V^T."""
    shifted, vectors = _shifted_eigh(a, ridge, "inv_sqrt input")
    root = vectors * (1.0 / np.sqrt(shifted))
    out = root @ vectors.T
    return (out + out.T) / 2.0


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root V diag(sqrt(max(lambda, 0))) V^T of a PSD matrix."""
    sym = _as_symmetric(a, "sym_sqrt input")
    values, vectors = _checked_psd_eigh(sym, "sym_sqrt input")
    root = vectors * np.sqrt(np.maximum(values, 0.0))
    out = root @ vectors.T
    return (out + out.T) / 2.0


def generalized_eigh(
    a: np.ndarray, b: np.ndarray, ridge: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve A w = lambda B w for symmetric A and PSD B.

    Reduces to an ordinary symmetric problem through W = inv_sqrt(B, ridge):
    eigh(W A W) with eigenvectors back-transformed as W U. Eigenvalues come
    out ascending; eigenvector columns are B-orthonormal up to the ridge.
    """
    sym_a = _as_symmetric(a, "generalized_eigh A")
    sym_b = _as_symmetric(b, "generalized_eigh B")
    if sym_a.shape != sym_b.shape:
        raise ValidationError(f"A and B dimensions differ: {sym_a.shape} vs {sym_b.shape}")
    whitener = inv_sqrt(sym_b, ridge)
    reduced = whitener @ sym_a @ whitener
    values, inner = eigh((reduced + reduced.T) / 2.0)
    return values, whitener @ inner

