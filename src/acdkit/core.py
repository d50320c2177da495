"""Core data types and the on-disk container format.

A hyperspectral cube travels as a two-file pair: a small UTF-8 JSON header
and a raw little-endian float32 payload in band-sequential order (band 0's
full H x W plane first). Ground-truth masks are binary PGM (P5). Intensity
maps reuse the cube container with bands=1.

All types are immutable after construction; loading rejects non-finite
values outright because every downstream statistic silently corrupts on
NaN/Inf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataIOError, ValidationError

_HEADER_DTYPE = "f32"
_HEADER_INTERLEAVE = "bsq"


@dataclass(frozen=True)
class HyperCube:
    """An H x W x Q radiance cube stored as float32, shape (height, width, bands)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"cube data must be 3-D (H, W, Q), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"cube dimensions must all be >= 1, got {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("cube contains NaN or Inf values")
        object.__setattr__(self, "data", arr)

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
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

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

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def flatten(cube: HyperCube) -> np.ndarray:
    """Return the M x Q pixel matrix of `cube` in row-major spatial order.

    Row (r * W + c) is the spectrum at (r, c). Values are promoted to
    float64 so downstream statistics and training run in full precision;
    `unflatten` casts back to float32 exactly.
    """
    h, w, q = cube.shape
    return cube.data.reshape(h * w, q).astype(np.float64)


def unflatten(matrix: np.ndarray, shape: tuple[int, int]) -> HyperCube:
    """Inverse of `flatten`: rebuild an H x W x Q cube from an M x Q matrix."""
    h, w = shape
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != h * w:
        raise ValidationError(f"matrix shape {m.shape} does not match spatial shape {shape}")
    return HyperCube(m.reshape(h, w, m.shape[1]))


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


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Promote two (M, Q) pixel matrices to float64 and require equal shapes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
        text = header_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot read cube header {header_path}: {exc}") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataIOError(f"malformed cube header {header_path}: {exc}") from exc

    for key in ("height", "width", "bands", "dtype", "interleave", "raw"):
        if key not in header:
            raise DataIOError(f"cube header {header_path} is missing field '{key}'")
    if header["dtype"] != _HEADER_DTYPE:
        raise DataIOError(f"unsupported dtype '{header['dtype']}' (only '{_HEADER_DTYPE}')")
    if header["interleave"] != _HEADER_INTERLEAVE:
        raise DataIOError(
            f"unsupported interleave '{header['interleave']}' (only '{_HEADER_INTERLEAVE}')"
        )
    h, w, q = int(header["height"]), int(header["width"]), int(header["bands"])
    if min(h, w, q) < 1:
        raise DataIOError(f"cube header {header_path} declares non-positive dimensions")

    raw_path = _raw_path(header_path, header["raw"])
    try:
        payload = raw_path.read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read raw payload {raw_path}: {exc}") from exc
    expected = h * w * q * 4
    if len(payload) != expected:
        raise DataIOError(
            f"raw payload {raw_path} holds {len(payload)} bytes, header implies {expected}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(q, h, w)
    if not np.all(np.isfinite(values)):
        raise DataIOError(f"raw payload {raw_path} contains NaN or Inf values")
    return HyperCube(np.ascontiguousarray(values.transpose(1, 2, 0)))


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
    payload = np.ascontiguousarray(cube.data.transpose(2, 0, 1)).astype("<f4").tobytes()
    try:
        header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
        _raw_path(header_path, raw_name).write_bytes(payload)
    except OSError as exc:
        raise DataIOError(f"cannot write cube to {header_path}: {exc}") from exc


def map_to_cube(imap: IntensityMap) -> HyperCube:
    """View an intensity map as a 1-band cube for container export."""
    return HyperCube(imap.values[:, :, np.newaxis].astype(np.float32))


def cube_to_map(cube: HyperCube) -> IntensityMap:
    """Interpret a 1-band cube as an intensity map."""
    if cube.bands != 1:
        raise ValidationError(f"expected a 1-band cube for an intensity map, got {cube.bands}")
    return IntensityMap(cube.data[:, :, 0].astype(np.float64))


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
