"""Core data types and the on-disk container format.

A hyperspectral cube travels as a two-file pair: a small UTF-8 JSON header
and a raw little-endian float32 payload in band-sequential order (band 0's
full H x W plane first). Ground-truth masks are binary PGM (P5). Intensity
maps reuse the cube container with bands=1.

In memory a cube holds its values once, as a read-only float32 array: the
container's own precision, so it round-trips bit for bit and `flatten` is a
zero-copy view. Every detector widens one row block (or one gathered
sample set) at a time to float64 before any arithmetic, so the float32
storage changes no bit of any result. All types are immutable after
construction. Every cube comes from the `HyperCube` constructor, whose one
check rejects NaN/Inf: every downstream statistic silently corrupts on them.

Every detector's map goes through the one row-block loop here
(`_pixel_map`); the predictors' per-pixel loss maps and their min fusion
live next to it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataIOError, NumericalError, ValidationError

_HEADER_DTYPE = "f32"
_HEADER_INTERLEAVE = "bsq"
_BLOCK = 1024  # rows per block in blocked scoring, moments and cube reads


@dataclass(frozen=True)
class HyperCube:
    """An H x W x Q radiance cube, shape (height, width, bands).

    `data` is a read-only, C-contiguous float32 array, what the cube's
    container file holds. Such an array that owns its memory is taken over;
    other float32 input is copied exactly, and any other input is rounded
    into float32 by one cast. NaN or Inf raises ValidationError; a finite
    value beyond the float32 range raises NumericalError.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"cube data must be 3-D (H, W, Q), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"cube dimensions must all be >= 1, got {arr.shape}")
        flags, values = arr.flags, arr
        # A writable array, or a view of one, could still change under the cube.
        if arr.dtype != np.float32 or flags.writeable or not (flags.owndata and flags.c_contiguous):
            with np.errstate(over="ignore"):
                values = np.array(arr, dtype=np.float32, order="C")
        # NaN and ±Inf reach the minimum or the maximum, so no whole-cube mask is needed.
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            # Only a failed check looks at the input again: NaN/Inf there is
            # bad data, a finite value beyond float32 is an overflow.
            peak = float(np.max(np.abs(arr)))
            if not np.isfinite(peak):
                raise ValidationError("cube contains NaN or Inf values")
            limit = float(np.finfo(np.float32).max)
            raise NumericalError(f"cube peak {peak:.6g} exceeds the float32 limit {limit:.6g}")
        values.flags.writeable = False
        object.__setattr__(self, "data", values)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class GroundTruthMask:
    """Per-pixel labels: 0 = background, 1 = anomaly change (direction-agnostic)."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValidationError(f"mask labels must be 2-D (H, W), got shape {arr.shape}")
        arr = (arr != 0).astype(np.uint8)
        if not np.any(arr == 0):
            raise ValidationError("mask has no background pixels")
        object.__setattr__(self, "labels", arr)

    @property
    def anomaly_count(self) -> int:
        return int(self.labels.sum())


@dataclass(frozen=True)
class IntensityMap:
    """An H x W map of nonnegative anomaly-change scores."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"intensity values must be 2-D (H, W), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("intensity map contains NaN or Inf values")
        if arr.size and arr.min() < 0.0:
            raise ValidationError(f"intensity map has negative values (min {arr.min()})")
        object.__setattr__(self, "values", arr)


def flatten(cube: HyperCube) -> np.ndarray:
    """Return the M x Q pixel matrix of `cube` in row-major spatial order.

    Row (r * W + c) is the spectrum at (r, c). The matrix is a zero-copy,
    read-only float32 view of `cube.data`; consumers widen one row block at
    a time to float64.
    """
    h, w, q = cube.shape
    return cube.data.reshape(h * w, q)


def _row_blocks(rows: int) -> Iterator[slice]:
    """Slices that cover `rows` rows `_BLOCK` at a time; the last also takes a shorter remainder."""
    start = 0
    while start < rows:
        stop = start + _BLOCK if rows - start >= 2 * _BLOCK else rows
        yield slice(start, stop)
        start = stop


def _pixel_map(score, rows: int, shape: tuple[int, int]) -> IntensityMap:
    """Build the (H, W) map of `rows` per-pixel scores, `_BLOCK` rows at a time.

    `score(part)` returns the scores of the rows in slice `part`. The last
    slice also takes a remainder shorter than `_BLOCK`, so no BLAS call sees
    a short block and each row's score is the one a whole-matrix pass gives,
    bit for bit. A shape that does not cover `rows` raises ValidationError,
    a non-finite score NumericalError.
    """
    height, width = int(shape[0]), int(shape[1])
    if height * width != rows:
        raise ValidationError(f"shape {shape} does not cover {rows} pixels")
    scores = np.empty(rows)
    for part in _row_blocks(rows):
        scores[part] = score(part)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("scores contain NaN or Inf values")
    return IntensityMap(scores.reshape(height, width))


def loss_map(
    predict: Callable[[np.ndarray], np.ndarray],
    source: np.ndarray,
    target: np.ndarray,
    shape: tuple[int, int],
) -> IntensityMap:
    """Per-pixel mean squared error over bands of predict(source) against target, as (H, W).

    Rows are predicted and scored one `_pixel_map` block at a time,
    so each row's loss is the one a whole-matrix pass gives, bit for bit.
    `source` and `target` are float32 or float64 matrices (anything else is
    promoted to float64, see `_float_matrix`); `predict` maps a (rows, Q)
    block of `source` to a new float64 (rows, Q) array, which is overwritten
    by the loss, so each target block is widened as it is subtracted. A
    non-finite loss raises NumericalError.
    """
    source = _float_matrix(source)
    target = _float_matrix(target)
    if source.shape != target.shape or source.ndim != 2:
        raise ValidationError(f"matrices disagree: {source.shape} vs {target.shape}")

    def score(part: slice) -> np.ndarray:
        block = predict(source[part])
        if block.shape != target[part].shape:
            raise ValidationError(
                f"matrices disagree: prediction {block.shape} vs {target[part].shape}"
            )
        block -= target[part]
        np.square(block, out=block)
        return np.mean(block, axis=1)

    return _pixel_map(score, source.shape[0], shape)


def fuse_min(i1: IntensityMap, i2: IntensityMap) -> IntensityMap:
    """Elementwise minimum of two loss maps."""
    if i1.values.shape != i2.values.shape:
        raise ValidationError(
            f"maps disagree: {i1.values.shape} vs {i2.values.shape}"
        )
    return IntensityMap(np.minimum(i1.values, i2.values))


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(value, name: str) -> int:
    """Return `value` as an int, or raise ValidationError naming the setting."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_number(value, name: str) -> float:
    """Return a finite integer or float `value` as a float; NaN, ±inf, bools and the rest are rejected."""
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return number


def _read_json_object(path, what: str) -> dict:
    """Parse the JSON object held in file `path`, described as `what` in errors."""
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read {what} {path}: {exc}") from exc
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return data


def _write_text(path, text: str, what: str) -> None:
    """Write `text` as UTF-8 to `path`; any OS failure becomes a DataIOError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot write {what} {path}: {exc}") from exc


def _float_matrix(m) -> np.ndarray:
    """`m` as an array, float32 or float64 as it is and anything else promoted to float64.

    A float32 matrix is a cube's storage: its consumers widen one row block
    at a time, so no pixel-sized float64 copy is made.
    """
    arr = np.asarray(m)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


def _distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, as `np.unique` returns them.

    This is `np.unique`'s own sort path: sort a flat copy, then keep each
    value that differs from the one before it. Calling `np.unique` itself
    would import `numpy.ma`, which it asks whether the input is masked.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _quantile(values, q) -> np.ndarray:
    """`np.quantile(values, q)` for 1-D `q` in [0, 1], bit for bit, over a flat copy.

    NumPy's default linear method: the virtual index v = q (n - 1) falls
    between order statistics a = floor(v) and b = a + 1, found by one
    `np.partition`, and with g = v - floor(v) the result is a + (b - a) g,
    or b - (b - a)(1 - g) where g >= 0.5. At the top (v = n - 1) both
    neighbours are the last order statistic and NumPy counts g from index
    -1, and it partitions at its distinct indices plus 0 and -1; doing the
    same keeps the sign of a zero result. `np.quantile` would import
    `numpy.ma`, through the `np.unique` it runs on those indices.
    """
    virtual = (np.size(values) - 1) * np.asarray(q, dtype=np.float64)
    top = virtual >= np.size(values) - 1
    below = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    kth = _distinct(np.concatenate([[0, -1], below, above]))
    ordered = np.partition(values, kth, axis=None)
    lo, hi = ordered[below], ordered[above]
    gamma = virtual - below
    step = hi - lo
    result = lo + step * gamma
    np.subtract(hi, step * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Require two (M, Q) pixel matrices of equal shape, as `_float_matrix` arrays."""
    x = _float_matrix(x)
    y = _float_matrix(y)
    if x.ndim != 2 or y.ndim != 2:
        raise ValidationError("pixel matrices must be 2-D (pixels x bands)")
    if x.shape != y.shape:
        raise ValidationError(f"pixel matrices disagree: {x.shape} vs {y.shape}")
    return x, y


def _check_cubes(x_cube: HyperCube, y_cube: HyperCube) -> None:
    """Require two co-registered cubes of equal (height, width, bands)."""
    if x_cube.shape != y_cube.shape:
        raise ValidationError(f"cubes disagree: {x_cube.shape} vs {y_cube.shape}")


def _raw_path(header_path: Path, raw_name: str) -> Path:
    return header_path.parent / raw_name


def read_cube(path) -> HyperCube:
    """Load a cube from its JSON header; the raw payload sits next to it."""
    header_path = Path(path)
    try:
        header = _read_json_object(header_path, "cube header")
        for key in ("height", "width", "bands", "dtype", "interleave", "raw"):
            if key not in header:
                raise ValidationError(f"cube header {header_path} is missing field '{key}'")
        h, w, q = (
            _require_int(header[key], f"cube header {header_path} field '{key}'")
            for key in ("height", "width", "bands")
        )
        if not isinstance(header["raw"], str):
            raise ValidationError(
                f"cube header {header_path} field 'raw' must be a file name, got {header['raw']!r}"
            )
    except ValidationError as exc:
        raise DataIOError(f"malformed {exc}") from exc
    if header["dtype"] != _HEADER_DTYPE:
        raise DataIOError(f"unsupported dtype '{header['dtype']}' (only '{_HEADER_DTYPE}')")
    if header["interleave"] != _HEADER_INTERLEAVE:
        raise DataIOError(
            f"unsupported interleave '{header['interleave']}' (only '{_HEADER_INTERLEAVE}')"
        )
    if min(h, w, q) < 1:
        raise DataIOError(f"cube header {header_path} declares non-positive dimensions")

    raw_path = _raw_path(header_path, header["raw"])
    rows = h * w
    try:
        with raw_path.open("rb") as raw:
            # checked before the cube is allocated: a header can declare any size
            size = os.fstat(raw.fileno()).st_size
            if size != rows * q * 4:
                raise DataIOError(
                    f"raw payload {raw_path} holds {size} bytes, header implies {rows * q * 4}"
                )
            values = np.empty((h, w, q), dtype=np.float32)
            pixels = values.reshape(rows, q)
            # Each band plane holds a row block's pixels contiguously: read
            # the block band by band, then transpose it into the cube's rows.
            for part in _row_blocks(rows):
                block = np.empty((q, part.stop - part.start), dtype="<f4")
                for band, plane in enumerate(block):
                    raw.seek((band * rows + part.start) * 4)
                    if raw.readinto(plane) != plane.nbytes:
                        raise DataIOError(f"raw payload {raw_path} ended early")
                pixels[part] = block.T
    except OSError as exc:
        raise DataIOError(f"cannot read raw payload {raw_path}: {exc}") from exc
    values.flags.writeable = False  # so the constructor takes it over without a copy
    try:
        return HyperCube(values)
    except ValidationError as exc:
        raise DataIOError(f"raw payload {raw_path}: {exc}") from exc


def write_cube(cube: HyperCube, path) -> None:
    """Write `cube` as a header + raw pair; `read_cube` inverts it bit-for-bit."""
    header_path = Path(path)
    raw_name = header_path.stem + ".raw"
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": _HEADER_DTYPE,
        "interleave": _HEADER_INTERLEAVE,
        "raw": raw_name,
    }
    payload = cube.data.transpose(2, 0, 1).astype("<f4", order="C")
    try:
        header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
        _raw_path(header_path, raw_name).write_bytes(payload)
    except OSError as exc:
        raise DataIOError(f"cannot write cube to {header_path}: {exc}") from exc


def map_to_cube(imap: IntensityMap) -> HyperCube:
    """View an intensity map as a 1-band cube for container export.

    A peak above the float32 maximum raises NumericalError, as for any cube.
    """
    return HyperCube(imap.values[:, :, np.newaxis])


def cube_to_map(cube: HyperCube) -> IntensityMap:
    """Interpret a 1-band cube as an intensity map."""
    if cube.bands != 1:
        raise ValidationError(f"expected a 1-band cube for an intensity map, got {cube.bands}")
    return IntensityMap(cube.data[:, :, 0])


def _pgm_tokens(payload: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    while True:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < len(payload) and payload[pos : pos + 1] == b"#":
            while pos < len(payload) and payload[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataIOError("truncated PGM header")
        yield payload[start:pos], pos


def read_mask(path, expected_shape: tuple[int, int] | None = None) -> GroundTruthMask:
    """Load a binary PGM (P5, maxval <= 255) mask; any nonzero byte is anomaly."""
    pgm_path = Path(path)
    try:
        payload = pgm_path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read mask {pgm_path}: {exc}") from exc

    tokens = _pgm_tokens(payload)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise DataIOError(f"{pgm_path} is not a P5 PGM (magic {magic!r})")
        width_tok, _ = next(tokens)
        height_tok, _ = next(tokens)
        maxval_tok, end = next(tokens)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (StopIteration, ValueError) as exc:
        raise DataIOError(f"malformed PGM header in {pgm_path}") from exc
    if width < 1 or height < 1:
        raise DataIOError(f"{pgm_path} declares non-positive dimensions")
    if not 0 < maxval <= 255:
        raise DataIOError(f"{pgm_path} maxval {maxval} is outside the 8-bit range")

    data = payload[end + 1 :]
    if len(data) != width * height:
        raise DataIOError(
            f"{pgm_path} payload holds {len(data)} bytes, header implies {width * height}"
        )
    labels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if expected_shape is not None and (height, width) != tuple(expected_shape):
        raise ValidationError(
            f"mask shape {(height, width)} does not match expected {tuple(expected_shape)}"
        )
    return GroundTruthMask(labels)


def write_pgm(values: np.ndarray, path) -> None:
    """Write an H x W uint8 array as a binary PGM (P5, maxval 255)."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValidationError(f"PGM payload must be 2-D, got shape {arr.shape}")
    arr = arr.astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + arr.tobytes())
    except OSError as exc:
        raise DataIOError(f"cannot write PGM to {path}: {exc}") from exc


def write_mask(mask: GroundTruthMask, path) -> None:
    """Write a mask as PGM with anomaly pixels at 255."""
    write_pgm(mask.labels * np.uint8(255), path)
