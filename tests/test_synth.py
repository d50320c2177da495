"""Synthetic scene generator: determinism, ground truth, condition realism."""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from acdkit.acda import AcdaConfig, run_acda
from acdkit.baselines import diff_rx, run_baseline
from acdkit.core import flatten
from acdkit.errors import DataIOError, ValidationError
from acdkit.synth import (
    _MIX_BILINEAR,
    _TANH_SHARPNESS,
    CONDITIONS,
    AnomalyRect,
    SceneSpec,
    _add_noise,
    _fit_condition,
    _mix,
    _smooth_fields,
    _smooth_spectra,
    describe,
    generate,
)

from helpers import peak_in_pixel_matrices


def _spec(**overrides):
    base = dict(
        height=16,
        width=20,
        bands=8,
        n_endmembers=3,
        condition="affine",
        condition_strength=0.3,
        noise_sigma=0.01,
        anomalies=(),
        seed=5,
    )
    base.update(overrides)
    return SceneSpec(**base)


class TestAnomalyRect:
    def test_area(self):
        assert AnomalyRect(0, 0, 3, 4).area == 12

    def test_touching_rects_do_not_overlap(self):
        a = AnomalyRect(0, 0, 3, 3)
        assert not a.overlaps(AnomalyRect(3, 0, 3, 3))
        assert not a.overlaps(AnomalyRect(0, 3, 3, 3))

    def test_intersecting_rects_overlap(self):
        a = AnomalyRect(0, 0, 3, 3)
        assert a.overlaps(AnomalyRect(2, 2, 3, 3))
        assert AnomalyRect(2, 2, 3, 3).overlaps(a)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            AnomalyRect(0, 0, 2, 2, mode="grow")

    def test_rejects_empty_rect(self):
        with pytest.raises(ValidationError, match="positive"):
            AnomalyRect(0, 0, 0, 2)

    def test_rejects_negative_origin(self):
        with pytest.raises(ValidationError, match="origin"):
            AnomalyRect(-1, 0, 2, 2)


class TestSceneSpec:
    def test_rejects_rect_outside_scene(self):
        with pytest.raises(ValidationError, match="fit"):
            _spec(anomalies=(AnomalyRect(18, 0, 3, 3),))

    def test_rejects_overlapping_rects(self):
        with pytest.raises(ValidationError, match="overlap"):
            _spec(anomalies=(AnomalyRect(0, 0, 3, 3), AnomalyRect(1, 1, 3, 3)))

    def test_anomaly_pixels_sums_rect_areas(self):
        spec = _spec(anomalies=(AnomalyRect(0, 0, 3, 3), AnomalyRect(5, 5, 2, 4)))
        assert spec.anomaly_pixels == 17

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValidationError, match="condition"):
            _spec(condition="seasonal")

    def test_rejects_single_endmember(self):
        with pytest.raises(ValidationError, match="n_endmembers"):
            _spec(n_endmembers=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValidationError, match="noise_sigma"):
            _spec(noise_sigma=-0.1)

    @pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "str", "none"])
    @pytest.mark.parametrize("field", ["condition_strength", "noise_sigma"])
    def test_float_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a number"):
            _spec(**{field: value})

    def test_dict_round_trip(self):
        spec = _spec(anomalies=(AnomalyRect(1, 2, 3, 4, "remove_t2"),))
        assert SceneSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_rect_dicts(self):
        data = _spec().to_dict()
        data["anomalies"] = [{"x": 0, "y": 0, "w": 2, "h": 2, "mode": "insert_t2"}]
        assert SceneSpec.from_dict(data).anomalies == (AnomalyRect(0, 0, 2, 2),)

    def test_from_dict_rejects_unknown_field(self):
        data = _spec().to_dict()
        data["contrast"] = 2.0
        with pytest.raises(ValidationError, match="unknown"):
            SceneSpec.from_dict(data)

    def test_json_file_round_trip(self, tmp_path):
        spec = _spec(anomalies=(AnomalyRect(1, 1, 2, 2),))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert SceneSpec.from_json_file(path) == spec

    def test_json_file_missing(self, tmp_path):
        with pytest.raises(DataIOError):
            SceneSpec.from_json_file(tmp_path / "nope.json")

    def test_json_file_malformed(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON"):
            SceneSpec.from_json_file(path)

    def test_json_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValidationError, match="object"):
            SceneSpec.from_json_file(path)


class TestGenerate:
    def test_same_spec_is_bit_identical(self):
        spec = _spec(anomalies=(AnomalyRect(2, 3, 3, 3),))
        x1, y1, t1 = generate(spec)
        x2, y2, t2 = generate(spec)
        assert_array_equal(x1.data, x2.data)
        assert_array_equal(y1.data, y2.data)
        assert_array_equal(t1.labels, t2.labels)

    def test_with_seed_changes_only_the_draw(self):
        spec = _spec()
        other = replace(spec, seed=99)
        assert other.seed == 99
        assert other.to_dict() | {"seed": spec.seed} == spec.to_dict()
        x1, _, _ = generate(spec)
        x2, _, _ = generate(other)
        assert not np.array_equal(x1.data, x2.data)

    def test_identical_noiseless_pair_is_equal(self):
        spec = _spec(condition="identical", condition_strength=0.0, noise_sigma=0.0)
        x, y, truth = generate(spec)
        assert_array_equal(x.data, y.data)
        assert truth.labels.sum() == 0

    def test_changes_touch_exactly_the_masked_pixels(self):
        spec = _spec(
            condition="identical",
            condition_strength=0.0,
            noise_sigma=0.0,
            anomalies=(AnomalyRect(2, 3, 3, 3), AnomalyRect(10, 8, 2, 2, "remove_t2")),
        )
        x, y, truth = generate(spec)
        changed = (x.data != y.data).any(axis=2)
        assert_array_equal(changed, truth.labels.astype(bool))

    def test_mask_marks_every_rect_pixel(self):
        rects = (AnomalyRect(0, 0, 3, 3), AnomalyRect(8, 4, 2, 5, "remove_t2"))
        spec = _spec(anomalies=rects)
        _, _, truth = generate(spec)
        assert int(truth.labels.sum()) == spec.anomaly_pixels
        for rect in rects:
            window = truth.labels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
            assert window.min() == 1

    def test_output_shapes_and_dtype(self):
        x, y, truth = generate(_spec())
        assert x.data.shape == (16, 20, 8)
        assert y.data.shape == (16, 20, 8)
        assert truth.labels.shape == (16, 20)
        assert x.data.dtype == np.float32
        assert np.array_equal(x.data, x.data.astype(np.float32))

    def test_noise_separates_acquisitions(self):
        x, y, _ = generate(_spec(condition="identical", condition_strength=0.0))
        assert not np.array_equal(x.data, y.data)  # independent noise draws


class TestConditionMap:
    """`apply` is one transform for every condition, pinned bit for bit to
    each condition's closed-form expression."""

    BACKGROUND = np.random.default_rng(0).uniform(0.2, 2.0, (16, 20, 8))
    # 41 x 50 = 2050 spectra: two 1024-row blocks and a 2-row tail folded into the last
    BLOCKS = np.random.default_rng(1).uniform(0.2, 2.0, (41, 50, 8))

    def _fit(self, condition):
        spec = _spec(condition=condition, condition_strength=0.8)
        return _fit_condition(self.BACKGROUND, spec, np.random.default_rng(5))

    @pytest.fixture(params=["cube", "blocks", "spectrum"])
    def values(self, request):
        cases = {"cube": self.BACKGROUND, "blocks": self.BLOCKS, "spectrum": self.BACKGROUND[3, 4]}
        return cases[request.param].copy()

    def test_identical_returns_the_input_bytes(self, values):
        out = self._fit("identical").apply(values)
        assert out is not values
        assert out.tobytes() == values.tobytes()

    def test_identical_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        _fit_condition(np.ones((4, 8)), _spec(condition="identical"), rng)
        assert rng.bit_generator.state == state

    def test_affine_is_gains_times_values_plus_offsets(self, values):
        condition = self._fit("affine")
        assert len(condition.amps) == 0
        expected = values * condition.gains + condition.offsets
        assert condition.apply(values).tobytes() == expected.tobytes()

    def test_nonlinear_adds_the_scaled_sum_of_knees(self, values):
        condition = self._fit("nonlinear")
        before = values.copy()
        (k0, k1), (a0, a1), (c0, c1) = _TANH_SHARPNESS, condition.amps, condition.centers
        out = values * condition.gains + condition.offsets
        expected = out + condition.strength * (
            a0 * np.tanh(k0 * (out - c0)) + a1 * np.tanh(k1 * (out - c1))
        )
        assert condition.apply(values).tobytes() == expected.tobytes()
        assert_array_equal(values, before)


class TestMix:
    """`_mix` mixes one slab of image rows at a time, bit for bit the whole-cube mix."""

    @staticmethod
    def _whole_cube(fields_, spectra):
        linear = np.einsum("ehw,eb->hwb", fields_, spectra)
        bilinear = np.zeros_like(linear)
        for e, f in itertools.combinations(range(len(fields_)), 2):
            bilinear += (fields_[e] * fields_[f])[..., np.newaxis] * (spectra[e] * spectra[f])
        bilinear *= _MIX_BILINEAR
        return linear + bilinear

    # 27-row slabs and a 13-row tail; one row per slab (wider than a block); one pixel
    @pytest.mark.parametrize("shape", [(40, 37, 9), (3, 1100, 4), (1, 1, 2)])
    def test_slabs_match_the_whole_cube_mix(self, shape):
        height, width, bands = shape
        rng = np.random.default_rng(11)
        spectra = _smooth_spectra(rng, 6, bands)
        fields_ = _smooth_fields(rng, 6, height, width)
        mixed = _mix(fields_, spectra)
        assert mixed.shape == shape
        assert mixed.tobytes() == self._whole_cube(fields_, spectra).tobytes()


class TestNoise:
    """`_add_noise` draws one row block at a time, the noise of one whole-cube draw."""

    # two 1024-row blocks and a 2-row tail; one pixel
    @pytest.mark.parametrize("shape", [(41, 50, 3), (1, 1, 2)], ids=["blocks", "pixel"])
    def test_blocked_draws_match_whole_cube_draws(self, shape):
        x_clean, y_clean = np.random.default_rng(2).uniform(0.2, 2.0, (2, *shape))
        x_noisy, y_noisy = x_clean.copy(), y_clean.copy()
        rng = np.random.default_rng(7)
        _add_noise(x_noisy, 0.01, rng)
        _add_noise(y_noisy, 0.01, rng)
        reference = np.random.default_rng(7)
        x_expected = x_clean + 0.01 * reference.standard_normal(shape)
        y_expected = y_clean + 0.01 * reference.standard_normal(shape)
        assert x_noisy.tobytes() == x_expected.tobytes()
        assert y_noisy.tobytes() == y_expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


class TestPeakMemory:
    """`generate` holds at most two and a half cubes: the background, which
    becomes the first acquisition, the second acquisition, and the first
    HyperCube's float32 copy while it is built. The abundance fields are
    freed after the mix, and the condition's knees and the noise run one
    row block at a time. Measured: 2.505 for every condition. A cube-sized
    temporary in the condition map or the noise, or the first clean cube
    kept past its HyperCube (3.01, as when a `remove_t2` rect's target
    still names it), exceeds the bound."""

    @staticmethod
    def _peak(condition, rects):
        spec = SceneSpec(128, 128, 40, n_endmembers=6, condition=condition,
                         condition_strength=0.8, noise_sigma=0.01, anomalies=rects, seed=1)
        # first-call allocations are not the scene's
        generate(replace(spec, height=8, width=8, anomalies=()))
        return peak_in_pixel_matrices(lambda: generate(spec), spec)

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_generate_peak_is_at_most_two_and_three_quarter_cubes(self, condition):
        assert self._peak(condition, ()) <= 2.75

    @pytest.mark.parametrize("condition", CONDITIONS)
    def test_last_rect_removed_from_the_first_cube_keeps_the_bound(self, condition):
        rects = (AnomalyRect(3, 4, 5, 5), AnomalyRect(60, 70, 5, 5, "remove_t2"))
        assert self._peak(condition, rects) <= 2.75


class TestDescribe:
    def test_manifest_round_trips_and_counts(self):
        spec = _spec(anomalies=(AnomalyRect(2, 3, 3, 3), AnomalyRect(10, 8, 2, 2)))
        manifest = json.loads(describe(spec))
        assert SceneSpec.from_dict(manifest["spec"]) == spec
        derived = manifest["derived"]
        assert derived["pixel_count"] == 320
        assert derived["anomaly_count"] == 2
        assert derived["anomaly_pixels"] == 13
        assert derived["background_pixels"] == 307


def _per_band_affine_residuals(x_cube, y_cube):
    """Relative residual of the best per-band affine fit y_b ~ a*x_b + c."""
    xf, yf = flatten(x_cube), flatten(y_cube)
    rels = []
    for b in range(xf.shape[1]):
        design = np.stack([xf[:, b], np.ones(len(xf))], axis=1)
        coef, *_ = np.linalg.lstsq(design, yf[:, b], rcond=None)
        residual = yf[:, b] - design @ coef
        rels.append(np.linalg.norm(residual) / np.linalg.norm(yf[:, b] - yf[:, b].mean()))
    return np.array(rels)


class TestConditionRealism:
    def _cond_spec(self, condition, strength):
        return SceneSpec(
            32, 32, 16, n_endmembers=5,
            condition=condition, condition_strength=strength,
            noise_sigma=0.0, seed=3,
        )

    def test_affine_condition_is_per_band_affine(self):
        x, y, _ = generate(self._cond_spec("affine", 0.3))
        assert _per_band_affine_residuals(x, y).max() < 1e-4

    @pytest.mark.parametrize("strength", [0.5, 0.8])
    def test_nonlinear_condition_escapes_affine_fits(self, strength):
        x, y, _ = generate(self._cond_spec("nonlinear", strength))
        assert _per_band_affine_residuals(x, y).min() > 0.05


@pytest.fixture(scope="module")
def scene():
    spec = SceneSpec(
        24, 24, 8, n_endmembers=3,
        condition="identical", condition_strength=0.0, noise_sigma=0.0,
        anomalies=(AnomalyRect(3, 4, 3, 3), AnomalyRect(15, 14, 3, 3, "remove_t2")),
        seed=7,
    )
    x, y, truth = generate(spec)
    return x, y, truth.labels.astype(bool)


class TestDetectability:
    """On an identical-condition noiseless scene, a planted anomaly must be
    the brightest structure for every detector in the toolkit."""

    @staticmethod
    def _contrast(values, mask):
        return values[mask].mean() / values[~mask].mean()

    def test_difference_detector_flags_anomalies(self, scene):
        x, y, mask = scene
        scores = diff_rx(flatten(x), flatten(y), (24, 24)).values
        assert self._contrast(scores, mask) > 1.5

    @pytest.mark.parametrize("kind", ["cc", "ce"])
    def test_linear_baselines_flag_anomalies(self, scene, kind):
        x, y, mask = scene
        fused = run_baseline(kind, x, y).values
        assert self._contrast(fused, mask) > 1.5

    def test_autoencoder_detector_flags_anomalies(self, scene):
        x, y, mask = scene
        cfg = AcdaConfig(
            h1=5,
            h2=3,
            epochs=150,
            batch_size=32,
            learning_rate=2e-3,
            l2_lambda=1e-4,
            sample_count=800,
            repeats=2,
            base_seed=1,
        )
        mean_map, _ = run_acda(x, y, cfg)
        assert self._contrast(mean_map.values, mask) > 1.5
