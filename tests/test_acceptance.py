"""Acceptance gate: the toolkit's headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist. The two 64x64x16 benchmark scenes are fixed by seed, so every
number asserted here is exactly reproducible.
"""

import os
import time

import numpy as np
import pytest

from acdkit.acda import AcdaConfig, prepare_samples, run_acda
from acdkit.baselines import run_baseline
from acdkit.cli import main
from acdkit.core import GroundTruthMask, IntensityMap, read_cube, read_mask, cube_to_map
from acdkit.evaluate import roc
from acdkit.neural import NetworkShape, backward
from acdkit.predetect import usfa_fit, usfa_intensity
from acdkit.synth import AnomalyRect, SceneSpec, generate

from helpers import (
    finite_difference_grads,
    generic_gradient_case,
    mann_whitney_auc,
    max_relative_error,
)

RECTS = (
    AnomalyRect(8, 8, 3, 3),
    AnomalyRect(40, 20, 3, 3, "remove_t2"),
    AnomalyRect(20, 50, 3, 3),
    AnomalyRect(52, 40, 3, 3),
    AnomalyRect(30, 30, 3, 3),
)

AFFINE_SPEC = SceneSpec(
    64, 64, 16, n_endmembers=3,
    condition="affine", condition_strength=0.3, noise_sigma=0.01,
    anomalies=RECTS, seed=11,
)

NONLINEAR_SPEC = SceneSpec(
    64, 64, 16, n_endmembers=6,
    condition="nonlinear", condition_strength=0.8, noise_sigma=0.01,
    anomalies=RECTS, seed=11,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def _auc(values: np.ndarray, truth: GroundTruthMask) -> float:
    return roc(IntensityMap(values), truth).auc


def _detects_every_rect(values: np.ndarray, truth: GroundTruthMask, far: float = 0.1) -> bool:
    """True when each rect has a pixel above the (1 - far) background quantile."""
    background = np.sort(values[truth.labels == 0])
    threshold = background[int(np.ceil((1.0 - far) * background.size)) - 1]
    return all(
        (values[r.y : r.y + r.h, r.x : r.x + r.w] > threshold).any() for r in RECTS
    )


@pytest.fixture(scope="module")
def nonlinear_result():
    """The nonlinear benchmark, shared by the advantage/fusion/sampling tests."""
    x_cube, y_cube, truth = generate(NONLINEAR_SPEC)
    cfg = AcdaConfig(
        h1=15,
        h2=10,
        epochs=400,
        batch_size=64,
        l2_lambda=1e-4,
        sample_count=1800,
        repeats=10,
        base_seed=0,
    )
    started = time.monotonic()
    samples = prepare_samples(x_cube, y_cube, cfg)
    mean_map, runs = run_acda(x_cube, y_cube, cfg, samples=samples)
    acda_seconds = time.monotonic() - started
    cc_map = run_baseline("cc", x_cube, y_cube)
    ce_map = run_baseline("ce", x_cube, y_cube)
    elapsed = time.monotonic() - started
    return {
        "truth": truth,
        "samples": samples,
        "mean_map": mean_map,
        "runs": runs,
        "acda_auc": _auc(mean_map.values, truth),
        "cc_auc": _auc(cc_map.values, truth),
        "ce_auc": _auc(ce_map.values, truth),
        "acda_seconds": acda_seconds,
        "elapsed": elapsed,
    }


def test_criterion_1_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    worst = 0.0
    for case in range(20):
        input_dim = int(rng.integers(4, 17))
        hidden = tuple(int(rng.integers(2, 13)) for _ in range(3))
        output_dim = int(rng.integers(2, 13))
        shape = NetworkShape(input_dim, hidden, output_dim)
        params, batch = generic_gradient_case(shape, seed=case)
        analytic = backward(params, *batch, 1e-3)
        fd_weights, fd_biases = finite_difference_grads(params, batch, 1e-3)
        worst = max(worst, max_relative_error(analytic.weights, fd_weights))
        worst = max(worst, max_relative_error(analytic.biases, fd_biases))
    elapsed = time.monotonic() - started
    _report(
        "criterion 1: gradient check",
        worst < 1e-4 and elapsed < 30.0,
        f"max relative error {worst:.3e} over 20 shapes in {elapsed:.1f}s",
    )


def test_criterion_2_roc_matches_pairwise_statistic():
    rng = np.random.default_rng(77)
    started = time.monotonic()
    worst = 0.0
    for case in range(50):
        size = int(rng.integers(20, 501))
        n_anomaly = int(rng.integers(1, max(2, size // 4)))
        labels = np.zeros(size, dtype=np.uint8)
        labels[rng.choice(size, size=n_anomaly, replace=False)] = 1
        scores = rng.normal(loc=0.4 * labels, size=size)
        if case % 2:
            scores = np.round(scores, 1)  # force heavy ties
        scores = np.abs(scores)
        height = size  # 1-wide plane keeps arbitrary sizes rectangular
        curve = roc(IntensityMap(scores.reshape(height, 1)),
                    GroundTruthMask(labels.reshape(height, 1)))
        oracle = mann_whitney_auc(scores[labels == 1], scores[labels == 0])
        worst = max(worst, abs(curve.auc - oracle))
    elapsed = time.monotonic() - started
    _report(
        "criterion 2: ROC vs Mann-Whitney",
        worst < 1e-9 and elapsed < 10.0,
        f"max |trapezoid - pairwise| {worst:.2e} over 50 sets in {elapsed:.1f}s",
    )


def test_criterion_3_linear_scene_recovered_by_both_detectors():
    started = time.monotonic()
    x_cube, y_cube, truth = generate(AFFINE_SPEC)
    cc_map = run_baseline("cc", x_cube, y_cube)
    cfg = AcdaConfig(
        epochs=100,
        batch_size=32,
        learning_rate=2e-3,
        l2_lambda=1e-4,
        sample_count=1800,
        repeats=10,
        base_seed=0,
    )
    mean_map, _ = run_acda(x_cube, y_cube, cfg)
    cc_auc = _auc(cc_map.values, truth)
    acda_auc = _auc(mean_map.values, truth)
    cc_hits = _detects_every_rect(cc_map.values, truth)
    acda_hits = _detects_every_rect(mean_map.values, truth)
    elapsed = time.monotonic() - started
    _report(
        "criterion 3: affine-scene recovery",
        cc_auc >= 0.95 and acda_auc >= 0.95 and cc_hits and acda_hits and elapsed < 300.0,
        f"cc_auc={cc_auc:.4f} acda_auc={acda_auc:.4f} "
        f"all-rects@FAR<=0.1 cc={cc_hits} acda={acda_hits} in {elapsed:.0f}s",
    )


def test_criterion_4_nonlinear_advantage(nonlinear_result):
    r = nonlinear_result
    ok = (
        r["acda_auc"] >= r["cc_auc"] + 0.05
        and r["acda_auc"] >= r["ce_auc"] + 0.05
        and r["acda_auc"] >= 0.90
        and r["elapsed"] < 900.0
    )
    _report(
        "criterion 4: nonlinear advantage",
        ok,
        f"acda={r['acda_auc']:.4f} cc={r['cc_auc']:.4f} ce={r['ce_auc']:.4f} "
        f"in {r['elapsed']:.0f}s",
    )


def test_criterion_5_min_fusion_properties(nonlinear_result):
    r = nonlinear_result
    dominated = all(
        (run.fused.values <= run.loss_map_fwd.values).all()
        and (run.fused.values <= run.loss_map_bwd.values).all()
        for run in r["runs"]
    )
    labels = r["truth"].labels
    values = r["mean_map"].values
    ratio = values[labels == 1].mean() / values[labels == 0].mean()
    _report(
        "criterion 5: min-fusion properties",
        dominated and ratio >= 5.0,
        f"fused<=directional on all {len(r['runs'])} runs; anomaly/background "
        f"mean ratio {ratio:.1f}",
    )


def test_criterion_6_predetection_null_and_purity(nonlinear_result):
    rng = np.random.default_rng(15)
    data = rng.normal(size=(300, 6))
    model = usfa_fit(data, data.copy())
    intensity = usfa_intensity(model, data, data.copy(), (20, 15))
    null_ok = intensity.values.max() == 0.0

    r = nonlinear_result
    anomaly_flags = r["truth"].labels.reshape(-1)[r["samples"].indices]
    contamination = float(anomaly_flags.mean())
    _report(
        "criterion 6: pre-detection null and sample purity",
        null_ok and contamination <= 0.01,
        f"identical-cube intensity max {intensity.values.max()}; "
        f"sample contamination {contamination:.4%} of {r['samples'].size}",
    )


def test_criterion_7_sequential_cli_is_bit_identical(tmp_path):
    spec = SceneSpec(
        16, 16, 8, n_endmembers=3, condition="affine", condition_strength=0.3,
        noise_sigma=0.01, anomalies=(AnomalyRect(4, 4, 3, 3),), seed=21,
    )
    import json

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    scene_dir = tmp_path / "scene"
    assert main(["synth", str(spec_path), "--out", str(scene_dir)]) == 0
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "detect", "acda", str(scene_dir / "x.json"), str(scene_dir / "y.json"),
            "--set", "epochs=25", "--set", "repeats=3",
            "--out", str(out),
        ])
        assert code == 0
        runs.append((out / "map.raw").read_bytes())
    identical = runs[0] == runs[1]
    _report(
        "criterion 7: sequential determinism",
        identical,
        f"two CLI runs produced {'identical' if identical else 'differing'} "
        f"map payloads ({len(runs[0])} bytes)",
    )


def test_criterion_8_reference_scene_reproduction():
    """Optional: reproduce published reference AUCs on the Viareggio 2013 pairs.

    Point ACDKIT_VIAREGGIO_DIR at a directory holding the two co-registered
    pairs as acdkit containers: ex1_x.json/ex1_y.json/ex1_truth.pgm
    (D1F12H1 vs D1F12H2) and ex2_x.json/ex2_y.json/ex2_truth.pgm
    (D1F12H1 vs D2F22H2). The dataset is external, so this check never
    blocks the suite.
    """
    data_dir = os.environ.get("ACDKIT_VIAREGGIO_DIR")
    if not data_dir:
        pytest.skip("external Viareggio data not provided (set ACDKIT_VIAREGGIO_DIR)")
    expectations = (("ex1", 0.8221), ("ex2", 0.8451))
    results = []
    for stem, expected in expectations:
        x_cube = read_cube(os.path.join(data_dir, f"{stem}_x.json"))
        y_cube = read_cube(os.path.join(data_dir, f"{stem}_y.json"))
        truth = read_mask(
            os.path.join(data_dir, f"{stem}_truth.pgm"),
            expected_shape=(x_cube.height, x_cube.width),
        )
        cfg = AcdaConfig(
            h1=60,
            h2=40,
            repeats=10,
            base_seed=0,
        )
        mean_map, _ = run_acda(x_cube, y_cube, cfg)
        results.append((stem, _auc(mean_map.values, truth), expected))
    ok = all(abs(auc - expected) <= 0.03 for _, auc, expected in results)
    detail = " ".join(f"{stem}: auc={auc:.4f} (expected {e:.4f}±0.03)" for stem, auc, e in results)
    _report("criterion 8: reference-scene reproduction", ok, detail)
