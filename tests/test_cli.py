"""End-to-end command-line workflows on small synthetic scenes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import acdkit
from acdkit.acda import AcdaConfig, bottleneck, run_acda
from acdkit.cli import main
from acdkit.core import (
    GroundTruthMask,
    HyperCube,
    cube_to_map,
    map_to_cube,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)
from acdkit.errors import NumericalError
from acdkit.evaluate import roc
from acdkit.core import IntensityMap
from acdkit.synth import AnomalyRect, SceneSpec, generate


def _emit_pairs(captured: str) -> dict:
    pairs = {}
    for line in captured.strip().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key] = value
    return pairs


def _error_lines(capsys) -> list[str]:
    return capsys.readouterr().err.splitlines()


def _write_spec(path, spec: SceneSpec):
    path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    return path


def _synth(root, name, spec: SceneSpec) -> dict:
    spec_path = _write_spec(root / f"{name}_spec.json", spec)
    out = root / name
    assert main(["synth", str(spec_path), "--out", str(out)]) == 0
    return {
        "spec": spec,
        "spec_path": spec_path,
        "dir": out,
        "x": out / "x.json",
        "y": out / "y.json",
        "truth": out / "truth.pgm",
    }


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Pre-built scenes shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    small = _synth(
        root,
        "small",
        SceneSpec(
            16, 16, 8, n_endmembers=3, condition="affine", condition_strength=0.3,
            noise_sigma=0.01,
            anomalies=(AnomalyRect(3, 4, 3, 3), AnomalyRect(10, 9, 3, 3, "remove_t2")),
            seed=5,
        ),
    )
    flat = _synth(
        root,
        "flat",
        SceneSpec(
            16, 16, 8, n_endmembers=3, condition="identical", condition_strength=0.0,
            noise_sigma=0.0, seed=5,
        ),
    )
    wide = _synth(
        root,
        "wide",
        SceneSpec(
            32, 32, 16, n_endmembers=4, condition="affine", condition_strength=0.3,
            noise_sigma=0.01,
            anomalies=(AnomalyRect(5, 5, 3, 3), AnomalyRect(20, 18, 3, 3)),
            seed=9,
        ),
    )
    return {"root": root, "small": small, "flat": flat, "wide": wide}


class TestSynth:
    def test_writes_complete_artifact_set(self, ws):
        out = ws["small"]["dir"]
        for name in ("x.json", "x.raw", "y.json", "y.raw", "truth.pgm", "scene.json",
                     "manifest.json"):
            assert (out / name).exists()

    def test_cubes_match_direct_generation(self, ws):
        spec = ws["small"]["spec"]
        x_direct, y_direct, truth_direct = generate(spec)
        assert_array_equal(read_cube(ws["small"]["x"]).data, x_direct.data)
        assert_array_equal(read_cube(ws["small"]["y"]).data, y_direct.data)
        assert_array_equal(read_mask(ws["small"]["truth"]).labels, truth_direct.labels)

    def test_manifest_records_run(self, ws):
        manifest = json.loads((ws["small"]["dir"] / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seeds"] == [5]
        assert manifest["config"]["height"] == 16
        assert str(ws["small"]["spec_path"]) in manifest["inputs"]
        for name in ("x.raw", "y.raw", "truth.pgm", "scene.json"):
            assert manifest["outputs"][name].startswith("sha256:")

    def test_emits_artifact_paths(self, ws, tmp_path, capsys):
        out = tmp_path / "again"
        assert main(["synth", str(ws["small"]["spec_path"]), "--out", str(out)]) == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        assert pairs["x"] == str(out / "x.json")
        assert pairs["manifest"] == str(out / "manifest.json")

    def test_missing_spec_is_io_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_spec_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"height": 0}', encoding="utf-8")
        assert main(["synth", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "override",
        [
            {"height": 16.5},
            {"height": True},
            {"anomalies": [{"x": 1.5, "y": 0, "w": 2, "h": 2}]},
            {"seed": -1},
            {"noise_sigma": True},
            {"condition_strength": True},
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
            {"condition_strength": float("-inf")},
        ],
        ids=["height-float", "height-bool", "rect-x-float", "seed-negative", "noise-bool",
             "strength-bool", "noise-nan", "noise-inf", "strength-minus-inf"],
    )
    def test_malformed_spec_is_one_error_line(self, tmp_path, capsys, override):
        spec = {"height": 8, "width": 8, "bands": 4, "n_endmembers": 2, "seed": 1}
        bad = tmp_path / "bad.json"
        # json.dumps writes the NaN / Infinity literals that json.loads reads back
        bad.write_text(json.dumps({**spec, **override}), encoding="utf-8")
        assert main(["synth", str(bad), "--out", str(tmp_path / "o")]) == 1
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        field = next(iter(override))
        if field != "anomalies":  # a rect's error names the rect's own field
            assert field in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [{"condition": "affine", "condition_strength": 1e39},
                                          {"noise_sigma": 1e39}], ids=["strength", "noise"])
    def test_radiance_beyond_float32_is_numerical_error(self, tmp_path, capsys, override):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 8, "width": 8, "bands": 4, "seed": 1, **override}),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 3
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: cube peak")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [{"condition": "affine", "condition_strength": 1e308},
                                          {"noise_sigma": 1e308}], ids=["strength", "noise"])
    def test_float64_overflow_is_numerical_error(self, tmp_path, capsys, override):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"height": 8, "width": 8, "bands": 4, "seed": 1, **override}),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 3
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: scene spec overflows float64")
        assert not (tmp_path / "o").exists()

    def test_undecodable_spec_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"height": \xff}')
        assert main(["synth", str(bad), "--out", str(tmp_path / "o")]) == 1
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith(f"error: scene spec {bad} is not valid JSON")
        assert not (tmp_path / "o").exists()


class TestDetectLinear:
    def test_diffrx_identical_pair_scores_zero(self, ws, tmp_path):
        flat = ws["flat"]
        out = tmp_path / "diffrx"
        code = main(["detect", "diffrx", str(flat["x"]), str(flat["y"]), "--out", str(out)])
        assert code == 0
        values = cube_to_map(read_cube(out / "map.json")).values
        assert values.max() == 0.0

    def test_boolean_ridge_rejected(self, ws, tmp_path, capsys):
        code = main(["detect", "cc", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "ridge=true", "--out", str(tmp_path / "o")])
        assert code == 1
        assert _error_lines(capsys) == ["error: config key 'ridge' must be a number, got True"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", ["ridge=-1", "ridge=inf", "ridge=nan"])
    @pytest.mark.parametrize("method", ["cc", "ce", "diffrx"])
    def test_out_of_range_ridge_is_one_error_line(self, ws, tmp_path, capsys, method, setting):
        code = main(["detect", method, str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", setting, "--out", str(tmp_path / "o")])
        assert code == 1
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: config key 'ridge' must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["cc", "ce"])
    def test_linear_methods_produce_maps(self, ws, tmp_path, method, capsys):
        out = tmp_path / method
        code = main(["detect", method, str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--out", str(out)])
        assert code == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        assert pairs["method"] == method
        values = cube_to_map(read_cube(out / "map.json")).values
        assert values.shape == (16, 16)
        assert np.isfinite(values).all() and values.min() >= 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["method"] == method

    def test_ridge_override(self, ws, tmp_path):
        out = tmp_path / "ridge"
        code = main(["detect", "cc", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "ridge=0.01", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["ridge"] == 0.01

    def test_manifest_digests_hash_each_whole_file(self, ws, tmp_path, monkeypatch):
        # In 1000-byte chunks each cube payload spans several reads and ends in a short one.
        monkeypatch.setattr("acdkit.cli._DIGEST_CHUNK", 1000)
        out = tmp_path / "digest"
        code = main(["detect", "cc", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests = {Path(p): d for p, d in manifest["inputs"].items()}
        digests.update({out / name: d for name, d in manifest["outputs"].items()})
        assert max(path.stat().st_size for path in digests) > 1000
        for path, digest in digests.items():
            assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()

    def test_mismatched_cube_pair_rejected(self, ws, tmp_path):
        code = main(["detect", "cc", str(ws["small"]["x"]), str(ws["wide"]["y"]),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_cube_is_io_error(self, ws, tmp_path):
        code = main(["detect", "cc", str(tmp_path / "ghost.json"), str(ws["small"]["y"]),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestDegenerateScenes:
    @pytest.mark.parametrize("method", ["cc", "ce", "acda"])
    def test_constant_cubes_are_one_numerical_error(self, tmp_path, capsys, method):
        # Every covariance inverse goes through inv_sqrt, so all three fail alike.
        paths = []
        for name, level in (("x", 0.5), ("y", 0.25)):
            paths.append(str(tmp_path / f"{name}.json"))
            write_cube(HyperCube(np.full((8, 8, 5), level, dtype=np.float32)), paths[-1])
        short = ["--set", "epochs=2", "--set", "repeats=1"] if method == "acda" else []
        code = main(["detect", method, *paths, *short, "--out", str(tmp_path / "o")])
        assert code == 3
        assert _error_lines(capsys) == [
            "error: eigenvalue 0.000e+00 below tolerance floor after ridge 0.000e+00"
        ]
        assert not (tmp_path / "o").exists()


class TestDetectAcda:
    def test_small_run_completes_quickly(self, ws, tmp_path):
        wide = ws["wide"]
        out = tmp_path / "acda"
        started = time.monotonic()
        code = main(["detect", "acda", str(wide["x"]), str(wide["y"]),
                     "--set", "epochs=20", "--out", str(out)])
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed < 60.0
        values = cube_to_map(read_cube(out / "map.json")).values
        assert values.shape == (32, 32)
        assert np.isfinite(values).all() and values.min() >= 0.0

    def test_loss_history_layout(self, ws, tmp_path):
        out = tmp_path / "hist"
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "epochs=4", "--set", "repeats=3", "--out", str(out)])
        assert code == 0
        lines = (out / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "repeat,direction,epoch,loss"
        assert len(lines) == 1 + 3 * 2 * 4
        first = lines[1].split(",")
        assert first[:3] == ["0", "fwd", "0"]
        assert float(first[3]) > 0.0

    def test_sequential_reruns_are_bit_identical(self, ws, tmp_path):
        args = ["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                "--set", "epochs=5", "--set", "repeats=2"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "map.raw").read_bytes() == (out2 / "map.raw").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("wall_clock_seconds"), m2.pop("wall_clock_seconds")
        assert m1 == m2

    def test_saved_run_maps_respect_min_fusion(self, ws, tmp_path):
        out = tmp_path / "runs"
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "epochs=3", "--set", "repeats=2",
                     "--save-run-maps", "--save-samples", "--out", str(out)])
        assert code == 0
        for r in range(2):
            fwd = cube_to_map(read_cube(out / f"run{r}_fwd.json")).values
            bwd = cube_to_map(read_cube(out / f"run{r}_bwd.json")).values
            fused = cube_to_map(read_cube(out / f"run{r}_fused.json")).values
            assert_array_equal(fused, np.minimum(fwd, bwd))
        sample_lines = (out / "samples.csv").read_text().strip().splitlines()
        assert sample_lines[0] == "index"
        indices = [int(v) for v in sample_lines[1:]]
        assert indices == sorted(indices)
        assert all(0 <= i < 256 for i in indices)

    def test_config_file_with_set_override(self, ws, tmp_path):
        config = tmp_path / "acda.json"
        config.write_text(json.dumps({"epochs": 30, "repeats": 2}), encoding="utf-8")
        out = tmp_path / "cfg"
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--config", str(config), "--set", "epochs=6", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 6  # --set wins over the file
        assert manifest["config"]["repeats"] == 2
        assert manifest["config"]["h1"] == 4 and manifest["config"]["h2"] == 3
        assert manifest["seeds"] == [0, 1]

    def test_manifest_config_holds_every_setting(self, ws, tmp_path):
        # with no settings: `AcdaConfig()`'s values, with h1/h2 resolved for 8 bands
        out = tmp_path / "defaults"
        assert main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        names = [f.name for f in dataclasses.fields(AcdaConfig)]
        assert sorted(config) == sorted(names + ["method", "resolved_sample_count"])
        h1, h2 = bottleneck(8).hidden[:2]
        assert {name: config[name] for name in names} == dict(
            dataclasses.asdict(AcdaConfig()), h1=h1, h2=h2
        )

    def test_partial_shape_override_rejected(self, ws, tmp_path):
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "h1=6", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_config_key_rejected(self, ws, tmp_path):
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "momentum=0.9", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_output_activation_is_an_unknown_key(self, ws, tmp_path, capsys):
        # The predictors' output layer is always linear; there is nothing to select.
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "output_activation=relu", "--out", str(tmp_path / "o")])
        assert code == 1
        assert _error_lines(capsys) == ["error: unknown config key 'output_activation'"]
        assert not (tmp_path / "o").exists()

    def test_non_integer_epochs_rejected(self, ws, tmp_path):
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", "epochs=soon", "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "setting",
        [
            "epochs=soon", "epochs=1.7", "repeats=true", "learning_rate=true", "base_seed=-1",
            "l2_lambda=inf", "l2_lambda=nan", "learning_rate=inf", "learning_rate=-inf",
            "l2_lambda=1" + "0" * 400,
        ],
        ids=lambda setting: setting if len(setting) < 40 else "l2_lambda=huge-int",
    )
    def test_mistyped_setting_is_one_error_line(self, ws, tmp_path, capsys, setting):
        code = main(["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--set", setting, "--out", str(tmp_path / "o")])
        assert code == 1
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert setting.partition("=")[0] in lines[0]
        assert not (tmp_path / "o").exists()

    def test_identical_pair_is_numerical_error(self, ws, tmp_path, capsys):
        flat = ws["flat"]
        code = main(["detect", "acda", str(flat["x"]), str(flat["y"]),
                     "--set", "epochs=2", "--set", "repeats=1", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no change structure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_error(self, ws, tmp_path, capsys):
        # The error line is all the user sees: no numpy RuntimeWarning on the way.
        small = ws["small"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["detect", "acda", str(small["x"]), str(small["y"]),
                         "--set", "learning_rate=1e300", "--set", "epochs=2",
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: repeat 0 fwd predictor: training loss is non-finite at epoch"
        )


class TestEval:
    def _export(self, values, path):
        write_cube(map_to_cube(IntensityMap(np.asarray(values, dtype=np.float64))), path)
        return path

    def test_perfect_map_scores_unit_auc(self, ws, tmp_path, capsys):
        truth = read_mask(ws["small"]["truth"])
        map_path = self._export(truth.labels.astype(np.float64), tmp_path / "perfect.json")
        out = tmp_path / "eval"
        assert main(["eval", str(map_path), str(ws["small"]["truth"]), "--out", str(out)]) == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        assert pairs["auc"] == "1.000000"
        assert (out / "roc.csv").read_text().splitlines()[-1] == "# auc=1.000000"
        rendering = read_mask(out / "map.pgm")
        assert rendering.labels.shape == truth.labels.shape

    def test_constant_map_scores_half_auc(self, ws, tmp_path, capsys):
        map_path = self._export(np.full((16, 16), 3.5), tmp_path / "flat.json")
        out = tmp_path / "eval"
        assert main(["eval", str(map_path), str(ws["small"]["truth"]), "--out", str(out)]) == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        assert pairs["auc"] == "0.500000"

    def test_csv_auc_matches_stdout(self, ws, tmp_path, capsys):
        rng = np.random.default_rng(3)
        map_path = self._export(rng.random((16, 16)), tmp_path / "noise.json")
        out = tmp_path / "eval"
        assert main(["eval", str(map_path), str(ws["small"]["truth"]), "--out", str(out)]) == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        assert (out / "roc.csv").read_text().splitlines()[-1] == f"# auc={pairs['auc']}"

    def test_shape_mismatch_rejected(self, ws, tmp_path):
        map_path = self._export(np.zeros((4, 4)), tmp_path / "tiny.json")
        code = main(["eval", str(map_path), str(ws["small"]["truth"]),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_map_is_io_error(self, ws, tmp_path):
        code = main(["eval", str(tmp_path / "ghost.json"), str(ws["small"]["truth"]),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_negative_map_value_is_io_error(self, ws, tmp_path, capsys):
        # No detector writes a negative score: like a NaN, it is a corrupt map (exit 2).
        map_path = self._export(np.ones((16, 16)), tmp_path / "map.json")
        raw = map_path.with_suffix(".raw")
        payload = bytearray(raw.read_bytes())
        payload[-4:] = np.array(-1.0, dtype="<f4").tobytes()
        raw.write_bytes(payload)
        out = tmp_path / "o"
        assert main(["eval", str(map_path), str(ws["small"]["truth"]), "--out", str(out)]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith(f"error: map {map_path}: ")
        assert "negative values" in lines[0]
        assert not out.exists()


class TestSweep:
    def test_grid_table_layout(self, ws, tmp_path, capsys):
        wide = ws["wide"]
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"h1": [8, 6, 3], "h2": [4, 2], "epochs": 10, "repeats": 2}),
            encoding="utf-8",
        )
        out = tmp_path / "sweep"
        code = main(["sweep", str(wide["x"]), str(wide["y"]), str(wide["truth"]),
                     str(grid), "--out", str(out)])
        assert code == 0
        pairs = _emit_pairs(capsys.readouterr().out)
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "h2/h1,8,6,3"
        assert lines[1].startswith("4,") and lines[2].startswith("2,")
        row4, row2 = lines[1].split(",")[1:], lines[2].split(",")[1:]
        assert row4[2] == "-"  # h2=4 cannot pair with h1=3
        for cell in row4[:2] + row2:
            assert 0.0 <= float(cell) <= 1.0
        assert pairs["auc_h1_8_h2_4"] == row4[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["h1"] == [8, 6, 3]
        assert manifest["config"]["epochs"] == 10

    def test_cells_outside_the_bottleneck_rule_read_dash(self, ws, tmp_path):
        # 8 bands: h1 = 8 does not compress them and h2 = 0 is no layer, so
        # `bottleneck` rejects every cell but (6, 4).
        small = ws["small"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [8, 6], "h2": [4, 0], "epochs": 1, "repeats": 1}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        code = main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--out", str(out)])
        assert code == 0
        header, row4, row0 = (out / "sweep.csv").read_text().strip().splitlines()
        assert header == "h2/h1,8,6"
        assert row4.split(",")[:2] == ["4", "-"] and 0.0 <= float(row4.split(",")[2]) <= 1.0
        assert row0 == "0,-,-"

    @staticmethod
    def _count_predetection(monkeypatch):
        import acdkit.acda as acda_module

        calls = []
        original = acda_module.prepare_samples

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(acda_module, "prepare_samples", counted)
        return calls

    def test_predetection_runs_once_and_table_is_unchanged(self, ws, tmp_path, monkeypatch):
        calls = self._count_predetection(monkeypatch)
        small = ws["small"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6, 5], "h2": [4, 3], "epochs": 3, "repeats": 2}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        code = main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--out", str(out)])
        assert code == 0
        assert len(calls) == 1
        # Each cell scored on its own, with `run_acda` running its own pre-detection.
        x_cube, y_cube = read_cube(small["x"]), read_cube(small["y"])
        mask = read_mask(small["truth"])
        expected = ["h2/h1,6,5"]
        for h2 in (4, 3):
            cells = []
            for h1 in (6, 5):
                cfg = AcdaConfig(h1=h1, h2=h2, epochs=3, repeats=2)
                mean_map, _ = run_acda(x_cube, y_cube, cfg)
                cells.append(f"{roc(mean_map, mask).auc:.6f}")
            expected.append(f"{h2}," + ",".join(cells))
        assert (out / "sweep.csv").read_text() == "\n".join(expected) + "\n"

    def test_every_cell_trains_on_the_one_sample_pool(self, ws, tmp_path, monkeypatch):
        import acdkit.acda as acda_module

        drawn, pools = [], []
        prepare, train = acda_module.prepare_samples, acda_module.train_lockstep

        def recorded_prepare(*args):
            drawn.append(prepare(*args))
            return drawn[-1]

        def recorded_train(shape, pool, *args):
            pools.append(pool)
            return train(shape, pool, *args)

        monkeypatch.setattr(acda_module, "prepare_samples", recorded_prepare)
        monkeypatch.setattr(acda_module, "train_lockstep", recorded_train)
        small = ws["small"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6, 5], "h2": [4], "epochs": 1, "repeats": 1}),
                        encoding="utf-8")
        code = main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--out", str(tmp_path / "sweep")])
        assert code == 0
        (samples,) = drawn
        assert len(pools) == 2
        for pool in pools:  # the samples' own buffer, not a copy
            assert pool is samples.pool
            assert pool[0].ctypes.data == samples.inputs.ctypes.data
            assert pool[1].ctypes.data == samples.labels.ctypes.data

    def test_failed_predetection_marks_every_cell_nan(self, ws, tmp_path, monkeypatch, capsys):
        calls = self._count_predetection(monkeypatch)
        flat = ws["flat"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6, 5], "h2": [4], "epochs": 2, "repeats": 1}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        # the changeless pair's own mask marks nothing, so the small scene's mask stands in
        code = main(["sweep", str(flat["x"]), str(flat["y"]), str(ws["small"]["truth"]),
                     str(grid), "--out", str(out)])
        assert code == 0
        assert len(calls) == 1
        assert (out / "sweep.csv").read_text().splitlines() == ["h2/h1,6,5", "4,nan,nan"]
        failures = _error_lines(capsys)
        assert [line.split(" failed: ")[0] for line in failures] == [
            "warning: cell h1=6 h2=4", "warning: cell h1=5 h2=4"
        ]
        assert all("no change structure" in line for line in failures)

    def test_short_pool_is_the_resolved_sample_count(self, ws, tmp_path, capsys):
        # 10000 requested from 256 pixels: both manifests record the whole pool's size.
        small = ws["small"]
        shared = {"epochs": 1, "repeats": 1, "sample_count": 10000}
        settings = [arg for key, value in shared.items() for arg in ("--set", f"{key}={value}")]
        acda_out, sweep_out = tmp_path / "acda", tmp_path / "sweep"
        assert main(["detect", "acda", str(small["x"]), str(small["y"]), *settings,
                     "--set", "h1=6", "--set", "h2=4", "--save-samples",
                     "--out", str(acda_out)]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6], "h2": [4], **shared}), encoding="utf-8")
        assert main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--out", str(sweep_out)]) == 0
        assert _error_lines(capsys) == []
        configs = [json.loads((out / "manifest.json").read_text())["config"]
                  for out in (acda_out, sweep_out)]
        assert [config["sample_count"] for config in configs] == [10000, 10000]
        resolved = {config["resolved_sample_count"] for config in configs}
        rows = (acda_out / "samples.csv").read_text().splitlines()[1:]
        assert resolved == {len(rows)} and 0 < len(rows) < 256

    def test_grid_without_bottleneck_skips_predetection(self, ws, tmp_path, monkeypatch):
        calls = self._count_predetection(monkeypatch)
        small = ws["small"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [3], "h2": [4], "epochs": 1, "repeats": 1}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        code = main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--out", str(out)])
        assert code == 0
        assert calls == []
        assert (out / "sweep.csv").read_text().splitlines() == ["h2/h1,3", "4,-"]

    def test_mask_without_anomaly_fails_before_training(self, ws, tmp_path, monkeypatch, capsys):
        # as `eval` does: exit 1, one error line and no table, not a table of nan cells
        calls = self._count_predetection(monkeypatch)
        small = ws["small"]
        cube = read_cube(small["x"])
        mask = tmp_path / "none.pgm"
        write_mask(GroundTruthMask(np.zeros((cube.height, cube.width), dtype=np.uint8)), mask)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6], "h2": [4], "epochs": 1, "repeats": 1}),
                        encoding="utf-8")
        code = main(["sweep", str(small["x"]), str(small["y"]), str(mask),
                     str(grid), "--out", str(tmp_path / "o")])
        assert code == 1
        assert _error_lines(capsys) == ["error: ground truth marks no anomaly pixels"]
        assert calls == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", ["h1=3", "h2=2"])
    def test_grid_axes_cannot_be_set(self, ws, tmp_path, capsys, setting):
        # h1/h2 are the grid's axes, not shared settings.
        small = ws["small"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [6], "h2": [4], "epochs": 1, "repeats": 1}),
                        encoding="utf-8")
        code = main(["sweep", str(small["x"]), str(small["y"]), str(small["truth"]),
                     str(grid), "--set", setting, "--out", str(tmp_path / "o")])
        assert code == 1
        key = setting.partition("=")[0]
        assert _error_lines(capsys) == [f"error: unknown config key '{key}'"]
        assert not (tmp_path / "o").exists()

    def test_grid_missing_axis_rejected(self, ws, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"h1": [4]}), encoding="utf-8")
        code = main(["sweep", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     str(ws["small"]["truth"]), str(grid), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "grid_keys",
        [{"h1": ["a"], "h2": [2]}, {"h1": 5, "h2": [2]}, {"h1": [4.5], "h2": [2]},
         {"h1": [4], "h2": [True]}, {"h1": [], "h2": [2]}, {"h1": [4], "h2": [2], "epochs": 1.7}],
        ids=["string", "scalar", "float", "bool", "empty", "shared-float-epochs"],
    )
    def test_malformed_grid_is_one_error_line(self, ws, tmp_path, capsys, grid_keys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs": 1, "repeats": 1, **grid_keys}), encoding="utf-8")
        code = main(["sweep", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     str(ws["small"]["truth"]), str(grid), "--out", str(tmp_path / "o")])
        assert code == 1
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "o").exists()


def _scaled_pair(ws, tmp_path, factor):
    paths = []
    for name in ("x", "y"):
        cube = read_cube(ws["small"][name])
        paths.append(tmp_path / f"{name}.json")
        write_cube(HyperCube(cube.data * np.float32(factor)), paths[-1])
    return [str(path) for path in paths]


def _unlabelled_eval_inputs(tmp_path):
    map_path, mask_path = tmp_path / "map.json", tmp_path / "none.pgm"
    write_cube(map_to_cube(IntensityMap(np.ones((16, 16)))), map_path)
    write_mask(GroundTruthMask(np.zeros((16, 16), dtype=np.uint8)), mask_path)
    return [str(map_path), str(mask_path)]


class TestFailedRunWritesNothing:
    """--out is created only once every check before the first write has passed."""

    @pytest.mark.parametrize(
        "case",
        ["cc-beyond-float32", "acda-beyond-float32", "acda-divergence", "acda-identical-pair",
         "eval-no-anomaly"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_output_directory(self, ws, tmp_path, capsys, case):
        small, flat = ws["small"], ws["flat"]
        short = ["--set", "epochs=2", "--set", "repeats=1"]
        expected_code, argv = {
            "cc-beyond-float32": (3, lambda: ["detect", "cc", *_scaled_pair(ws, tmp_path, 1e30)]),
            "acda-beyond-float32": (3, lambda: [
                "detect", "acda", *_scaled_pair(ws, tmp_path, 1e30), *short
            ]),
            "acda-divergence": (3, lambda: [
                "detect", "acda", str(small["x"]), str(small["y"]),
                "--set", "learning_rate=1e300", "--set", "epochs=2",
            ]),
            "acda-identical-pair": (3, lambda: [
                "detect", "acda", str(flat["x"]), str(flat["y"]), *short
            ]),
            "eval-no-anomaly": (1, lambda: ["eval", *_unlabelled_eval_inputs(tmp_path)]),
        }[case]
        out = tmp_path / "o"
        assert main(argv() + ["--out", str(out)]) == expected_code
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["diffrx", "eval"])
    def test_non_finite_payload_is_one_io_error(self, ws, tmp_path, capsys, command):
        # A NaN in a cube file is bad data: exit 2, whichever command reads it.
        if command == "diffrx":
            x, corrupt = _scaled_pair(ws, tmp_path, 1.0)
            argv = ["detect", "diffrx", x, corrupt]
        else:
            corrupt = str(tmp_path / "map.json")
            write_cube(map_to_cube(IntensityMap(np.ones((16, 16)))), corrupt)
            argv = ["eval", corrupt, str(ws["small"]["truth"])]
        raw = Path(corrupt).with_suffix(".raw")
        payload = bytearray(raw.read_bytes())
        payload[-4:] = np.array(np.nan, dtype="<f4").tobytes()
        raw.write_bytes(payload)
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: raw payload")
        assert lines[0].endswith("cube contains NaN or Inf values")
        assert not out.exists()

    def test_existing_output_directory_is_kept(self, ws, tmp_path, capsys):
        flat = ws["flat"]
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept", encoding="utf-8")
        code = main(["detect", "acda", str(flat["x"]), str(flat["y"]),
                     "--set", "epochs=2", "--set", "repeats=1", "--out", str(out)])
        assert code == 3
        assert [path.name for path in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text(encoding="utf-8") == "kept"


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command, blocked",
        [("synth", "scene.json"), ("acda", "losses.csv"), ("acda", "samples.csv")],
    )
    def test_unwritable_text_output_is_io_error(self, ws, tmp_path, capsys, command, blocked):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        if command == "synth":
            argv = ["synth", str(ws["small"]["spec_path"])]
        else:
            argv = ["detect", "acda", str(ws["small"]["x"]), str(ws["small"]["y"]),
                    "--set", "epochs=1", "--set", "repeats=1", "--save-samples"]
        assert main(argv + ["--out", str(out)]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: cannot write")
        assert blocked in lines[0]


class TestDispatch:
    def test_numerical_errors_map_to_exit_three(self, ws, tmp_path, monkeypatch):
        import acdkit.cli as cli_module

        def explode(path):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_module, "read_cube", explode)
        code = main(["detect", "cc", str(ws["small"]["x"]), str(ws["small"]["y"]),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize(
        "detector",
        [["cc"], ["acda", "--set", "epochs=2", "--set", "repeats=1"]],
        ids=["cc", "acda"],
    )
    def test_map_beyond_float32_is_numerical_error(self, ws, tmp_path, capsys, detector):
        # Radiance near 1e30 is valid float32, but the squared-error map (~1e60) is not.
        paths = []
        for name in ("x", "y"):
            cube = read_cube(ws["small"][name])
            paths.append(tmp_path / f"{name}.json")
            write_cube(HyperCube(cube.data * np.float32(1e30)), paths[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["detect", detector[0], *map(str, paths), *detector[1:],
                         "--out", str(tmp_path / "o")])
        assert code == 3
        lines = _error_lines(capsys)
        assert len(lines) == 1
        assert lines[0].startswith("error: cube peak")
        assert "float32 limit" in lines[0]

    def test_unknown_method_rejected_by_parser(self, ws, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", "pca", str(ws["small"]["x"]), str(ws["small"]["y"]),
                  "--out", str(tmp_path / "o")])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("acdkit ")


class TestManifestAfterRelease:
    """Every cube a command reads is freed before `_write_manifest` digests anything."""

    # sweep_flat: pre-detection fails on a changeless pair; sweep_diverging: every cell
    # fails in training. Both keep the failed cells' errors until the table is written.
    @pytest.mark.parametrize(
        "command",
        ["cc", "ce", "diffrx", "acda", "eval", "sweep", "sweep_flat", "sweep_diverging"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_cube_is_alive_when_the_manifest_is_written(self, ws, tmp_path, monkeypatch,
                                                          command):
        scene = ws["flat"] if command == "sweep_flat" else ws["small"]
        # the flat pair's own mask marks nothing; the small scene's mask has its shape
        x, y, truth = str(scene["x"]), str(scene["y"]), str(ws["small"]["truth"])
        if command == "eval":
            assert main(["detect", "cc", x, y, "--out", str(tmp_path / "cc")]) == 0
            argv = ["eval", str(tmp_path / "cc" / "map.json"), truth]
        elif command.startswith("sweep"):
            grid = tmp_path / "grid.json"
            rate = {"learning_rate": 1e300} if command == "sweep_diverging" else {}
            grid.write_text(json.dumps({"h1": [6], "h2": [4], "epochs": 1, "repeats": 1, **rate}),
                            encoding="utf-8")
            argv = ["sweep", x, y, truth, str(grid)]
        elif command == "acda":
            argv = ["detect", "acda", x, y, "--set", "epochs=1", "--set", "repeats=1"]
        else:
            argv = ["detect", command, x, y]
        read_cube, write_manifest = acdkit.cli.read_cube, acdkit.cli._write_manifest
        refs, alive = [], []

        def tracked_read(path):
            cube = read_cube(path)
            refs.extend([weakref.ref(cube), weakref.ref(cube.data)])
            return cube

        def checked_write(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return write_manifest(*args)

        monkeypatch.setattr(acdkit.cli, "read_cube", tracked_read)
        monkeypatch.setattr(acdkit.cli, "_write_manifest", checked_write)
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert refs and alive == [0]


# Run in a fresh interpreter: the command's exit code, the acdkit modules it
# loaded, whether `logging` and `numpy.ma` were loaded, and whether OpenSSL's
# `_hashlib` was loaded on each entry to `_write_manifest`, as the last line of stdout.
_LOADED_BY = """
import json, sys
import acdkit.cli
write_manifest, hashlib_at_manifest = acdkit.cli._write_manifest, []
def recording(*args):
    hashlib_at_manifest.append("_hashlib" in sys.modules)
    return write_manifest(*args)
acdkit.cli._write_manifest = recording
code = acdkit.cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "acdkit")
print(json.dumps([code, loaded, "logging" in sys.modules, "numpy.ma" in sys.modules,
                  hashlib_at_manifest]))
"""
_SHARED = {"acdkit", "acdkit.cli", "acdkit.core", "acdkit.errors"}
_LINEAR = _SHARED | {"acdkit.linalg", "acdkit.baselines"}
_ACDA = _SHARED | {"acdkit.linalg", "acdkit.neural", "acdkit.predetect", "acdkit.acda"}
_LOADED = {
    "synth": _SHARED | {"acdkit.synth"},
    "eval": _SHARED | {"acdkit.evaluate"},
    "cc": _LINEAR,
    "ce": _LINEAR,
    "diffrx": _LINEAR,
    "acda": _ACDA,
    "sweep": _ACDA | {"acdkit.evaluate"},
}


class TestImports:
    @staticmethod
    def _loaded_by(argv):
        paths = [str(Path(acdkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run(
            [sys.executable, "-c", _LOADED_BY, *argv],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        code, loaded, logging_loaded, ma_loaded, hashlib_at_manifest = json.loads(
            done.stdout.splitlines()[-1]
        )
        assert code == 0, done.stderr
        return set(loaded), logging_loaded, ma_loaded, hashlib_at_manifest

    @pytest.mark.parametrize("command", list(_LOADED))
    def test_command_loads_only_its_modules(self, ws, tmp_path, command):
        small = ws["small"]
        x, y, truth = str(small["x"]), str(small["y"]), str(small["truth"])
        if command == "synth":
            # a nonlinear condition places its tanh knees at quantiles of the background
            spec = dataclasses.replace(small["spec"], condition="nonlinear")
            argv = ["synth", str(_write_spec(tmp_path / "spec.json", spec))]
        elif command == "eval":
            assert main(["detect", "cc", x, y, "--out", str(tmp_path / "cc")]) == 0
            argv = ["eval", str(tmp_path / "cc" / "map.json"), truth]
        elif command == "sweep":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"h1": [6], "h2": [4], "epochs": 1, "repeats": 1}),
                            encoding="utf-8")
            argv = ["sweep", x, y, truth, str(grid)]
        elif command == "acda":
            argv = ["detect", "acda", x, y, "--set", "epochs=1", "--set", "repeats=1"]
        else:
            argv = ["detect", command, x, y]
        loaded, logging_loaded, ma_loaded, hashlib_at_manifest = self._loaded_by(
            argv + ["--out", str(tmp_path / "o")]
        )
        assert loaded == _LOADED[command]
        # np.unique, np.quantile and np.percentile would import numpy.ma (1 MB, 10-20 ms)
        assert not ma_loaded
        assert not logging_loaded
        assert len(hashlib_at_manifest) == 1
        # OpenSSL (3.5 MB) loads with the first digest, after the cubes are freed. acda,
        # sweep and synth draw from numpy.random, whose bit_generator imports `secrets`,
        # then `hmac`, then `_hashlib`, so for them it is loaded long before the manifest.
        if command not in ("acda", "sweep", "synth"):
            assert hashlib_at_manifest == [False]
