"""Deterministic synthetic multi-temporal scene generator.

Builds a shared smooth background (random smooth endmember spectra mixed by
low-frequency abundance fields), images it under two conditions — identical,
per-band affine, or additionally tanh-distorted — plants small rectangular
spectral anomalies, and adds independent Gaussian noise per acquisition.
Every byte of the output is a pure function of the scene spec.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    _BLOCK,
    GroundTruthMask,
    HyperCube,
    _quantile,
    _read_json_object,
    _require_int,
    _require_number,
    _row_blocks,
)
from .errors import NumericalError, ValidationError

CONDITIONS = ("identical", "affine", "nonlinear")
ANOMALY_MODES = ("insert_t2", "remove_t2")

# Sharpness of the tanh distortion. The knee of each band's curve sits at a
# random quantile inside the band's bulk, so the saturation affects a large
# share of pixels and no affine map can absorb it.
_TANH_SHARPNESS = (6.0, 14.0)
_TANH_KNEE_QUANTILES = (0.1, 0.9)
_MIX_BILINEAR = 0.8
# Softmax temperature for abundance fields: higher -> patchier material map.
_FIELD_SHARPNESS = 2.0
# Anomaly spectra are drawn from the same smooth-curve family as the
# endmembers (a plausible foreign material, not an out-of-family spike) but
# must keep at least this RMS spectral distance from the local background in
# both acquisitions so every planted rect is genuinely present.
_ANOMALY_RMS = 0.06
_ANOMALY_DRAW_LIMIT = 64


@dataclass(frozen=True)
class AnomalyRect:
    """Axis-aligned rectangle (x = column, y = row) with a change mode.

    `insert_t2` plants the anomalous spectrum in the second acquisition
    (an object that appeared); `remove_t2` plants it in the first (an
    object that vanished).
    """

    x: int
    y: int
    w: int
    h: int
    mode: str = "insert_t2"

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            _require_int(getattr(self, name), f"rect {name}")
        if self.w < 1 or self.h < 1:
            raise ValidationError(f"rect must have positive size, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValidationError(f"rect origin must be non-negative, got ({self.x}, {self.y})")
        if self.mode not in ANOMALY_MODES:
            raise ValidationError(f"mode must be one of {ANOMALY_MODES}, got '{self.mode}'")

    @property
    def area(self) -> int:
        return self.w * self.h

    def overlaps(self, other: "AnomalyRect") -> bool:
        return not (
            self.x + self.w <= other.x
            or other.x + other.w <= self.x
            or self.y + self.h <= other.y
            or other.y + other.h <= self.y
        )


@dataclass(frozen=True)
class SceneSpec:
    """Full recipe for one synthetic acquisition pair."""

    height: int
    width: int
    bands: int
    n_endmembers: int = 4
    condition: str = "affine"
    condition_strength: float = 0.3
    noise_sigma: float = 0.01
    anomalies: tuple[AnomalyRect, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("height", "width", "bands", "n_endmembers", "seed"):
            _require_int(getattr(self, name), f"scene {name}")
        for name in ("condition_strength", "noise_sigma"):
            _require_number(getattr(self, name), f"scene {name}")
        if self.height < 1 or self.width < 1 or self.bands < 1:
            raise ValidationError(
                f"scene dims must be positive, got {self.height}x{self.width}x{self.bands}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.n_endmembers < 2:
            raise ValidationError(f"n_endmembers must be >= 2, got {self.n_endmembers}")
        if self.condition not in CONDITIONS:
            raise ValidationError(f"condition must be one of {CONDITIONS}, got '{self.condition}'")
        if self.condition_strength < 0:
            raise ValidationError(f"condition_strength must be >= 0, got {self.condition_strength}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        rects = tuple(
            r if isinstance(r, AnomalyRect) else AnomalyRect(**r) for r in self.anomalies
        )
        for r in rects:
            if r.x + r.w > self.width or r.y + r.h > self.height:
                raise ValidationError(f"rect {r} does not fit a {self.height}x{self.width} scene")
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a.overlaps(b):
                    raise ValidationError(f"rects {a} and {b} overlap")
        object.__setattr__(self, "anomalies", rects)

    @property
    def anomaly_pixels(self) -> int:
        return sum(r.area for r in self.anomalies)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["anomalies"] = [
            {"x": r.x, "y": r.y, "w": r.w, "h": r.h, "mode": r.mode} for r in self.anomalies
        ]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SceneSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown scene spec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "SceneSpec":
        data = _read_json_object(path, "scene spec")
        try:
            return cls.from_dict(data)
        except TypeError as exc:
            raise ValidationError(f"scene spec {path} is malformed: {exc}") from exc


def _smooth_spectra(rng: np.random.Generator, count: int, bands: int) -> np.ndarray:
    """Random smooth positive spectra: a base level plus signed Gaussian bumps.

    Bumps carry random signs (the curve is shifted back above 0.2 afterwards)
    so the endmembers differ in shape, not just brightness: all-positive bumps
    would make every band a near-constant multiple of one brightness profile,
    and the mixed scene would carry almost no spectral contrast.
    """
    grid = np.linspace(0.0, 1.0, bands)
    spectra = np.empty((count, bands))
    for e in range(count):
        curve = np.full(bands, rng.uniform(0.2, 1.0))
        for _ in range(4):
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.08, 0.35)
            amplitude = rng.uniform(0.3, 1.2) * rng.choice((-1.0, 1.0))
            curve = curve + amplitude * np.exp(-0.5 * ((grid - center) / width) ** 2)
        low = float(curve.min())
        if low < 0.2:
            curve = curve + (0.2 - low)
        spectra[e] = curve
    return spectra


def _smooth_fields(rng: np.random.Generator, count: int, height: int, width: int) -> np.ndarray:
    """Softmax of low-frequency cosine mixtures: smooth, spatially correlated.

    Each raw logit field is standardized before the softmax so the mixing
    temperature is set by `_FIELD_SHARPNESS` alone rather than by the drawn
    amplitudes; otherwise wide draws collapse the abundances into near-pure
    patches and every pixel sits at one of a handful of material points.
    """
    rows = np.linspace(0.0, 1.0, height)[:, np.newaxis]
    cols = np.linspace(0.0, 1.0, width)[np.newaxis, :]
    logits = np.empty((count, height, width))
    for e in range(count):
        f = np.zeros((height, width))
        for _ in range(4):
            freq_r = rng.uniform(0.5, 3.0)
            freq_c = rng.uniform(0.5, 3.0)
            phase_r = rng.uniform(0.0, 2.0 * np.pi)
            phase_c = rng.uniform(0.0, 2.0 * np.pi)
            amplitude = rng.uniform(0.5, 1.5)
            f += amplitude * np.cos(2.0 * np.pi * freq_r * rows + phase_r) * np.cos(
                2.0 * np.pi * freq_c * cols + phase_c
            )
        spread = float(f.std())
        logits[e] = f / spread if spread > 0.0 else f
    logits = _FIELD_SHARPNESS * (logits - logits.max(axis=0))
    weights = np.exp(logits)
    return weights / weights.sum(axis=0)


@dataclass(frozen=True)
class _ConditionMap:
    """The second acquisition's per-band imaging transform, reusable on any spectrum.

    Its parameters alone say what the condition is: the identity has gains 1,
    offsets 0 and no knees, an affine map has no knees, and a nonlinear map
    adds `strength` times a monotone sum of tanh compressions per band, one
    knee per sharpness in `_TANH_SHARPNESS`. A single knee is not enough: its
    per-band curves are so smooth over the scene's low-dimensional abundance
    manifold that a cross-band affine map can cancel them almost exactly in
    the inverse direction, which would let a linear predictor learn the
    condition after all. Several knees at distinct centers and sharpnesses
    keep the distortion outside any affine predictor's reach.
    """

    strength: float
    gains: np.ndarray
    offsets: np.ndarray
    amps: np.ndarray  # (n_knees, bands), nonnegative; (0, bands) without knees
    centers: np.ndarray  # (n_knees, bands)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The transform of `values` (..., bands), in one new array.

        The knees bend one `core._row_blocks` block of spectra at a time, so
        beside the result only two block-sized temporaries are held; every
        value takes the same operations as in a whole-array pass.
        """
        out = values * self.gains
        out += self.offsets
        if len(self.amps):
            spectra = out.reshape(-1, out.shape[-1])
            for rows in _row_blocks(len(spectra)):
                block = spectra[rows]
                bend, term = np.zeros_like(block), np.empty_like(block)
                for sharp, amp, center in zip(_TANH_SHARPNESS, self.amps, self.centers):
                    np.subtract(block, center, out=term)
                    term *= sharp
                    np.tanh(term, out=term)
                    term *= amp
                    bend += term
                bend *= self.strength
                block += bend
        return out


def _fit_condition(
    background: np.ndarray, spec: SceneSpec, rng: np.random.Generator
) -> _ConditionMap:
    """Draw the condition's parameters; an identical condition draws nothing.
    Knee centers sit at random quantiles of the knee-free map's image of the
    background so the saturation bites inside each band's bulk. Knee
    amplitudes are positive so each band's curve stays monotone increasing."""
    n_knees = len(_TANH_SHARPNESS)
    empty = np.zeros((0, spec.bands))
    if spec.condition == "identical":
        return _ConditionMap(0.0, np.ones(spec.bands), np.zeros(spec.bands), empty, empty)
    s = spec.condition_strength
    gains = rng.uniform(1.0 - s, 1.0 + s, spec.bands)
    offsets = rng.uniform(-s, s, spec.bands) * float(background.mean())
    affine = _ConditionMap(s, gains, offsets, empty, empty)
    if spec.condition == "affine":
        return affine
    image = affine.apply(background).reshape(-1, spec.bands)
    knees = rng.uniform(*_TANH_KNEE_QUANTILES, (n_knees, spec.bands))
    centers = np.stack([_quantile(image[:, b], knees[:, b]) for b in range(spec.bands)], axis=1)
    amps = rng.uniform(0.5, 1.0, (n_knees, spec.bands)) / n_knees
    return _ConditionMap(s, gains, offsets, amps, centers)


def _anomaly_spectrum(
    rng: np.random.Generator,
    bands: int,
    condition: "_ConditionMap",
    insert: bool,
    local_reference: np.ndarray,
) -> np.ndarray:
    """A smooth foreign spectrum at a fixed RMS distance from local background.

    Candidates come from the endmember family; an inserted (time-2) object
    is imaged under the second acquisition's condition like everything else
    in that image. The planted spectrum is then rescaled about the rect's
    mean background spectrum so its RMS contrast equals `_ANOMALY_RMS`
    exactly, which keeps detection difficulty independent of the draw.
    """
    for _ in range(_ANOMALY_DRAW_LIMIT):
        candidate = _smooth_spectra(rng, 1, bands)[0]
        planted = condition.apply(candidate) if insert else candidate
        offset = planted - local_reference
        rms = float(np.sqrt(np.mean(offset**2)))
        if rms > 1e-9:
            return local_reference + offset * (_ANOMALY_RMS / rms)
    raise NumericalError("anomaly spectrum draws were degenerate for this rect")


def _mix(fields_: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Bilinear mixing: linear abundance blend plus pairwise interaction terms.

    The quadratic terms model secondary reflections between materials
    (standard bilinear mixing). They also matter statistically: purely
    linear mixing leaves the scene on a low-dimensional affine manifold
    where cross-band linear predictors are far more powerful than on
    real data.

    The cube is mixed one slab of image rows (about `_BLOCK` pixels) at a
    time, so each pair's pass stays in cache; every value takes the same
    operations in the same order as a whole-cube pass, bit for bit.
    """
    height, width = fields_.shape[1:]
    mixed = np.empty((height, width, spectra.shape[1]))
    pairs = [
        (fields_[e], fields_[f], spectra[e] * spectra[f])
        for e, f in itertools.combinations(range(len(fields_)), 2)
    ]
    step = max(1, _BLOCK // width)
    for top in range(0, height, step):
        rows = slice(top, top + step)
        linear = np.einsum("ehw,eb->hwb", fields_[:, rows], spectra, out=mixed[rows])
        bilinear = np.zeros_like(linear)
        for field_e, field_f, product in pairs:
            bilinear += (field_e[rows] * field_f[rows])[..., np.newaxis] * product
        bilinear *= _MIX_BILINEAR
        linear += bilinear
    return mixed


def _plant_anomalies(
    x_clean: np.ndarray,
    y_clean: np.ndarray,
    spec: SceneSpec,
    condition: _ConditionMap,
    rng: np.random.Generator,
) -> np.ndarray:
    """Plant each rect of `spec` into its target acquisition, in place; returns the labels."""
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for rect in spec.anomalies:
        window = (slice(rect.y, rect.y + rect.h), slice(rect.x, rect.x + rect.w))
        insert = rect.mode == "insert_t2"
        target = y_clean if insert else x_clean
        local_reference = target[window].reshape(-1, spec.bands).mean(axis=0)
        planted = _anomaly_spectrum(rng, spec.bands, condition, insert, local_reference)
        target[window[0], window[1], :] = planted
        labels[window] = 1
    return labels


def _add_noise(clean: np.ndarray, sigma: float, rng: np.random.Generator) -> None:
    """Add `sigma` times standard normal noise to `clean`, one row block of spectra at a time.

    The blocks draw in pixel order, so the noise is the one a single
    whole-cube `standard_normal` draw gives.
    """
    spectra = clean.reshape(-1, clean.shape[-1])
    for rows in _row_blocks(len(spectra)):
        noise = rng.standard_normal(spectra[rows].shape)
        noise *= sigma
        spectra[rows] += noise


def generate(spec: SceneSpec) -> tuple[HyperCube, HyperCube, GroundTruthMask]:
    """Produce the acquisition pair and its anomaly mask for a scene spec.

    The first acquisition is the background itself; the second is the
    background pushed through the condition transform before any anomaly is
    planted in the first. Each anomaly rect replaces the clean spectra of its
    target acquisition with a random distinct spectrum before noise, and the
    mask marks exactly those rects. A spec whose arithmetic overflows float64
    raises NumericalError.
    """
    rng = np.random.default_rng(spec.seed)
    try:
        with np.errstate(over="raise"):
            spectra = _smooth_spectra(rng, spec.n_endmembers, spec.bands)
            # the abundance fields are freed as soon as they are mixed
            x_clean = _mix(_smooth_fields(rng, spec.n_endmembers, spec.height, spec.width), spectra)
            condition = _fit_condition(x_clean, spec, rng)
            y_clean = condition.apply(x_clean)
            labels = _plant_anomalies(x_clean, y_clean, spec, condition, rng)
            _add_noise(x_clean, spec.noise_sigma, rng)
            _add_noise(y_clean, spec.noise_sigma, rng)
    except (FloatingPointError, OverflowError) as exc:  # OverflowError: from rng.uniform
        raise NumericalError(f"scene spec overflows float64: {exc}") from exc
    x_cube = HyperCube(x_clean)
    del x_clean  # the cube keeps its own float32-rounded copy
    return x_cube, HyperCube(y_clean), GroundTruthMask(labels)


def describe(spec: SceneSpec) -> str:
    """JSON manifest: the spec itself plus derived pixel counts."""
    manifest = {
        "spec": spec.to_dict(),
        "derived": {
            "pixel_count": spec.height * spec.width,
            "anomaly_count": len(spec.anomalies),
            "anomaly_pixels": spec.anomaly_pixels,
            "background_pixels": spec.height * spec.width - spec.anomaly_pixels,
        },
    }
    return json.dumps(manifest, indent=2)
