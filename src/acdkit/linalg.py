"""Dense symmetric linear algebra for the detectors.

Everything here works on plain float64 numpy arrays. Eigendecompositions go
through LAPACK (`np.linalg.eigh`) with a fixed eigenvector sign convention,
so reruns on one machine are bit-identical. Covariance
matrices from natural scenes are routinely near-singular, so every inversion
accepts a ridge; pass None to get the default 1e-6 * trace / dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _require_number
from .errors import NumericalError, ValidationError

_SYMMETRY_RTOL = 1e-9
_EIGENVALUE_RTOL = 1e-12  # inv_sqrt floor on shifted eigenvalues, relative to max |lambda|
_PSD_TOL = 1e-8  # eigenvalues may undershoot zero by this fraction of the trace


@dataclass(frozen=True)
class Stats:
    """First and second moments of a pixel matrix (population normalization)."""

    mean: np.ndarray  # (Q,)
    cov: np.ndarray  # (Q, Q), symmetric PSD up to tolerance


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


def mean_cov(m: np.ndarray) -> Stats:
    """Column means and population covariance (1/M) of an M x Q matrix."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"pixel matrix must be 2-D, got shape {arr.shape}")
    rows = arr.shape[0]
    if rows < 2:
        raise ValidationError(f"need at least 2 rows for covariance, got {rows}")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / rows
    return Stats(mean=mean, cov=(cov + cov.T) / 2.0)


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


def inv_sqrt(a: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Symmetric inverse square root V diag(1/sqrt(lambda + ridge)) V^T."""
    sym = _as_symmetric(a, "inv_sqrt input")
    ridge_val = _resolve_ridge(sym, ridge)
    values, vectors = _checked_psd_eigh(sym, "inv_sqrt input")
    shifted = values + ridge_val
    floor = _EIGENVALUE_RTOL * max(float(np.abs(values).max()), 0.0)
    if np.any(shifted <= floor):
        raise NumericalError(
            f"eigenvalue {shifted.min():.3e} below tolerance floor after ridge {ridge_val:.3e}"
        )
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


def solve_spd(a: np.ndarray, rhs: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Solve (A + ridge I) X = rhs for symmetric PSD A."""
    sym = _as_symmetric(a, "solve_spd input")
    ridge_val = _resolve_ridge(sym, ridge)
    rhs_arr = np.asarray(rhs, dtype=np.float64)
    if rhs_arr.shape[0] != sym.shape[0]:
        raise ValidationError(
            f"rhs has {rhs_arr.shape[0]} rows, matrix dimension is {sym.shape[0]}"
        )
    system = sym + ridge_val * np.eye(sym.shape[0])
    try:
        solution = np.linalg.solve(system, rhs_arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SPD solve failed after ridge {ridge_val:.3e}: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise NumericalError(f"SPD solve produced non-finite values (ridge {ridge_val:.3e})")
    residual = np.linalg.norm(system @ solution - rhs_arr)
    rhs_norm = np.linalg.norm(rhs_arr)
    if rhs_norm > 0 and residual > 1e-8 * rhs_norm:
        raise NumericalError(
            f"SPD solve residual {residual / rhs_norm:.3e} exceeds 1e-8; increase the ridge"
        )
    return solution
