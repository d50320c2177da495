"""Property tests for the scoring maths: AUC rank invariance, min-fusion dominance,
and Diff-RX / SFA invariance under a band transform shared by both acquisitions;
bit-exact round trips of the cube, mask and curve files; and the whole ACDA
pipeline on tiny random pairs, which either gives a map or raises an AcdkitError.

Hypothesis draws the inputs; `derandomize=True` makes every run draw the same
examples, so a failure reproduces and CI stays deterministic.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acdkit.acda import AcdaConfig, fuse_min, run_acda
from acdkit.baselines import diff_rx
from acdkit.core import (
    GroundTruthMask,
    HyperCube,
    IntensityMap,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)
from acdkit.errors import AcdkitError
from acdkit.evaluate import export_curve, roc
from acdkit.neural import TrainConfig
from acdkit.predetect import usfa_fit, usfa_intensity

deterministic = settings(derandomize=True, deadline=None, max_examples=200)

# Strictly increasing maps that stay finite and non-negative on [0, 1000] and keep
# scores one unit apart distinct in float64, so no rounding creates a new tie.
INCREASING = {
    "affine": lambda s: 1e-3 * s + 7.0,
    "steep affine": lambda s: 1e3 * s,
    "sqrt": np.sqrt,
    "log1p": np.log1p,
    "cube": lambda s: s**3,
    "exp": lambda s: np.expm1(s / 100.0),
}


@st.composite
def scored_scenes(draw):
    """Integer-valued scores on a small (H, W) plane and a mask with both classes."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(2, 6))
    scores = draw(arrays(np.float64, (height, width), elements=st.integers(0, 1000).map(float)))
    labels = draw(arrays(np.uint8, (height, width), elements=st.integers(0, 1)))
    labels.flat[0], labels.flat[-1] = 1, 0
    return scores, GroundTruthMask(labels)


@deterministic
@given(scene=scored_scenes(), transform=st.sampled_from(sorted(INCREASING)))
def test_auc_unchanged_under_strictly_increasing_transform(scene, transform):
    scores, truth = scene
    moved = INCREASING[transform](scores)
    assert np.unique(moved).size == np.unique(scores).size  # no tie made or broken
    assert roc(IntensityMap(moved), truth).auc == roc(IntensityMap(scores), truth).auc


finite_scores = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def map_pairs(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    first = draw(arrays(np.float64, shape, elements=finite_scores))
    second = draw(arrays(np.float64, shape, elements=finite_scores))
    return IntensityMap(first), IntensityMap(second)


@deterministic
@given(maps=map_pairs())
def test_fuse_min_never_exceeds_either_input(maps):
    a, b = maps
    fused = fuse_min(a, b).values
    assert np.all(fused <= a.values)
    assert np.all(fused <= b.values)
    assert np.all((fused == a.values) | (fused == b.values))


@st.composite
def transformed_pairs(draw):
    """A noisy linear pair (x, y) and an invertible band transform A = O diag(s).

    O is orthogonal and every scale s lies in [0.5, 2]. The difference y - x
    carries independent noise in every band, which keeps cov(x - y) well
    conditioned.
    """
    bands = draw(st.integers(2, 8))
    shape = (draw(st.integers(4, 8)), draw(st.integers(4, 8)))
    scales = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=bands, max_size=bands)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = shape[0] * shape[1]
    x = rng.normal(size=(pixels, bands)) * rng.uniform(0.5, 2.0, size=bands)
    x += rng.normal(size=bands)
    gain = np.eye(bands) + 0.3 * rng.normal(size=(bands, bands))
    y = x @ gain + 0.5 * rng.normal(size=(pixels, bands))
    orthogonal, _ = np.linalg.qr(rng.normal(size=(bands, bands)))
    return x, y, orthogonal * scales, shape


def _assert_close_maps(moved, base, rtol):
    """Every pixel within `rtol` of the base map's largest score."""
    assert np.max(np.abs(moved - base)) <= rtol * np.max(np.abs(base))


@deterministic
@given(case=transformed_pairs())
def test_diff_rx_unchanged_under_shared_band_transform(case):
    # The Mahalanobis score of d = x - y is invariant under d -> A d. The default
    # ridge (1e-6 * trace / dim) is not, so it only holds to about 1e-6 * cond(cov d).
    x, y, transform, shape = case
    moved_x, moved_y = x @ transform.T, y @ transform.T
    for ridge, rtol in ((0.0, 1e-9), (None, 1e-4)):
        base = diff_rx(x, y, shape, ridge).values
        moved = diff_rx(moved_x, moved_y, shape, ridge).values
        _assert_close_maps(moved, base, rtol)


@deterministic
@given(case=transformed_pairs())
def test_sfa_unchanged_under_shared_band_transform(case):
    # cov(x - y) w = lambda cov_shared w keeps its eigenvalues under a shared
    # transform (Wu, Du & Zhang, TGRS 2014), and the projected scores follow.
    x, y, transform, shape = case
    moved_x, moved_y = x @ transform.T, y @ transform.T
    model = usfa_fit(x, y, ridge=0.0)
    moved_model = usfa_fit(moved_x, moved_y, ridge=0.0)
    assert moved_model.n_components == model.n_components
    base = usfa_intensity(model, x, y, shape).values
    moved = usfa_intensity(moved_model, moved_x, moved_y, shape).values
    _assert_close_maps(moved, base, 1e-9)


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
# Every finite float32: Hypothesis draws -0.0, subnormals and the extremes among them.
any_float32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@deterministic
@given(data=arrays(np.float32, st.tuples(*[st.integers(1, 4)] * 3), elements=any_float32))
@example(
    data=np.array([-0.0, 0.0, F32_TINY, -F32_TINY, F32_MAX, -F32_MAX], np.float32).reshape(1, 2, 3)
)
def test_cube_round_trip_is_bit_exact(data):
    cube = HyperCube(data)
    with tempfile.TemporaryDirectory() as tmp:
        write_cube(cube, Path(tmp) / "c.json")
        again = read_cube(Path(tmp) / "c.json")
    assert again.shape == cube.shape
    assert again.data.tobytes() == cube.data.tobytes()


@deterministic
@given(labels=arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     elements=st.integers(0, 1)))
def test_mask_round_trip(labels):
    labels.flat[0] = 0  # a mask needs a background pixel
    mask = GroundTruthMask(labels)
    with tempfile.TemporaryDirectory() as tmp:
        write_mask(mask, Path(tmp) / "m.pgm")
        again = read_mask(Path(tmp) / "m.pgm", expected_shape=labels.shape)
    assert again.labels.tobytes() == mask.labels.tobytes()


@deterministic
@given(scene=scored_scenes(), scale=st.floats(1e-300, 1e300))
def test_curve_round_trip(scene, scale):
    scores, truth = scene
    curve = roc(IntensityMap(scores * scale), truth)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roc.csv"
        export_curve(curve, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        auc_line = path.read_text().splitlines()[-1]
    for column, name in enumerate(("thresholds", "far", "dr")):
        assert rows[:, column].tobytes() == getattr(curve, name).tobytes()
    assert auc_line == f"# auc={curve.auc:.6f}"  # the file keeps 6 decimals


@st.composite
def tiny_pairs(draw):
    """Two co-registered float32 cubes of 1-5 px per side and 1-6 bands.

    The first is random or constant; the second is independent of it, equal
    to it, or a noise-free affine image of it.
    """
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 10.0, size=shape) if draw(st.booleans()) else np.full(shape, 3.0)
    relation = draw(st.sampled_from(["independent", "identical", "affine"]))
    y = {
        "independent": rng.uniform(0.0, 10.0, size=shape),
        "identical": x,
        "affine": 2.0 * x + 1.0,
    }[relation]
    return HyperCube(x), HyperCube(y)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pair=tiny_pairs())
def test_run_acda_gives_a_map_or_an_acdkit_error(pair):
    x_cube, y_cube = pair
    cfg = AcdaConfig(train=TrainConfig(epochs=2), repeats=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mean_map, _ = run_acda(x_cube, y_cube, cfg)
        except AcdkitError:
            return
    assert mean_map.values.shape == x_cube.shape[:2]
