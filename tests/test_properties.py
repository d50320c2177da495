"""Property tests for the scoring maths: AUC rank invariance, min-fusion dominance,
and Diff-RX / SFA invariance under a band transform shared by both acquisitions;
the postconditions of the scalar k-means and its agreement with the plain
Lloyd loop; the sort-based distinct values and quantiles against `np.unique`,
`np.quantile` and `np.percentile`, bit for bit; the training kernel's bias
gradient against `np.sum`, bit for bit; bit-exact round trips of the
cube, mask and curve files; and the whole ACDA pipeline on tiny random pairs,
which either gives a map or raises an AcdkitError.

Hypothesis draws the inputs; `derandomize=True` makes every run draw the same
examples, so a failure reproduces and CI stays deterministic.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acdkit.acda import AcdaConfig, fuse_min, run_acda
from acdkit.baselines import diff_rx
from acdkit.core import (
    GroundTruthMask,
    HyperCube,
    IntensityMap,
    _distinct,
    _quantile,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)
from acdkit.errors import AcdkitError, NumericalError
from acdkit.evaluate import export_curve, roc
from acdkit.neural import MlpParams, TrainConfig, _loss_and_grads, _step_scratch
from acdkit.predetect import kmeans_1d, usfa_fit, usfa_intensity
from helpers import reference_kmeans_1d

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
    assert moved_model.projection.shape == model.projection.shape
    base = usfa_intensity(model, x, y, shape).values
    moved = usfa_intensity(moved_model, moved_x, moved_y, shape).values
    _assert_close_maps(moved, base, 1e-9)


# Near-ties and wide gaps, so quantile seeding often starts with an empty cluster.
KMEANS_GRID = (0.0, 0.5, 3.0, 3.25, 7.0, 8.0, 20.0)


@st.composite
def kmeans_cases(draw):
    """3-8 values from KMEANS_GRID, with repeats, and k in 1-4 with at least k distinct."""
    values = draw(st.lists(st.sampled_from(KMEANS_GRID), min_size=3, max_size=8))
    k = draw(st.integers(1, min(4, len(set(values)))))
    return np.array(values), k


@deterministic
@given(case=kmeans_cases())
def test_kmeans_postconditions(case):
    values, k = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = kmeans_1d(values, k)
    centers, assignments = result.centers, result.assignments
    assert centers.shape == (k,) and np.all(np.isfinite(centers))
    assert np.all(np.diff(centers) > 0)
    assert assignments.shape == values.shape
    assert np.array_equal(np.unique(assignments), np.arange(k))  # in range, none empty
    distances = np.abs(values[:, np.newaxis] - centers)
    assert np.all(distances[np.arange(values.size), assignments] == distances.min(axis=1))


@deterministic
@given(
    # Small integers give exact ties between centers and several empty clusters at once.
    values=st.one_of(
        st.lists(st.sampled_from(KMEANS_GRID), min_size=1, max_size=12),
        st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=40),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    ),
    k=st.integers(1, 5),
)
# Two clusters empty at once: the second reseed must see the first one's move.
@example(values=[3.0, 0.0, 5.0, 0.0, 8.0, 9.0], k=5)
def test_kmeans_matches_the_distance_matrix_lloyd_loop(values, k):
    values = np.array(values)
    assume(np.unique(values).size >= k)
    centers, assignments = reference_kmeans_1d(values, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.unique(centers).size != k:
            with pytest.raises(NumericalError, match="duplicate"):
                kmeans_1d(values, k)
            return
        result = kmeans_1d(values, k)
    assert result.centers.tobytes() == centers.tobytes()
    assert np.array_equal(result.assignments, assignments)


# Ties, signed zeros and spread-out values: the order statistics NumPy reads, and
# which of two equal values of opposite sign it keeps, depend on them.
TIED = st.sampled_from((-0.0, 0.0, 1.0, -2.5, 3.0))
# As wide as keeps the difference of two values finite, with subnormals and -0.0.
WIDE = st.floats(-1e307, 1e307)
sample_values = st.one_of(
    st.lists(TIED, min_size=1, max_size=40),
    st.lists(WIDE, min_size=1, max_size=40),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    st.builds(lambda v, n: [v] * n, WIDE, st.integers(1, 20)),  # constant
)
quantiles = st.lists(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
                     min_size=1, max_size=3)


@deterministic
@given(values=sample_values)
@example(values=[0.0, -0.0, 0.0])
def test_distinct_is_np_unique_bit_for_bit(values):
    values = np.array(values)
    assert _distinct(values).tobytes() == np.unique(values).tobytes()
    assert _distinct(values.reshape(1, -1)).tobytes() == np.unique(values).tobytes()


@deterministic
@given(values=sample_values, q=quantiles)
@example(values=[-0.0], q=[0.5])  # n = 1: NumPy keeps the sign of a zero
@example(values=[5.0, -0.0, 0.0, 0.0], q=[0.0, 0.4, 1.0])
@example(values=[2.0, 2.0, 2.0], q=[0.25, 1.0])
# Which of the tied zeros lands at index 3 depends on the partition's kth list.
@example(values=[-0.0, -0.0, 3.0, -0.0, 3.0, 1.0, 0.0, -2.5], q=[0.5, 0.91, 0.62])
def test_quantile_is_np_quantile_bit_for_bit(values, q):
    values = np.array(values)
    assert _quantile(values, np.array(q)).tobytes() == np.quantile(values, q).tobytes()


@deterministic
@given(values=sample_values)
def test_quantile_is_np_percentile_of_2_and_98_bit_for_bit(values):
    values = np.array(values)
    expected = np.percentile(values, [2.0, 98.0])
    assert _quantile(values, np.true_divide([2.0, 98.0], 100)).tobytes() == expected.tobytes()


@deterministic
@given(
    matrix=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
                  elements=st.one_of(TIED, st.floats(-1e6, 1e6))),
    q=quantiles,
)
def test_quantile_of_a_strided_column_is_np_quantile_bit_for_bit(matrix, q):
    # synth reads the knee quantiles of each band, a column of the pixel matrix
    for band in range(matrix.shape[1]):
        column = matrix[:, band]
        assert _quantile(column, np.array(q)).tobytes() == np.quantile(column, q).tobytes()


@deterministic
@given(
    rows=st.integers(1, 300),
    width=st.integers(1, 130),
    nets=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=300, width=1, nets=None, seed=0)  # width 1 sums the contiguous axis
@example(rows=64, width=15, nets=20, seed=1)  # a nonlinear-64 step's last layers
def test_bias_gradient_is_np_sum_bit_for_bit(rows, width, nets, seed):
    # One layer of one net, (B, w), or of N stacked nets, (N, B, w). After the
    # step its output buffer holds the delta whose row sum is the bias gradient;
    # summing in another order than np.sum would move every trained net's bits.
    rng = np.random.default_rng(seed)
    lead = () if nets is None else (nets,)
    params = MlpParams([rng.normal(size=(*lead, width, 1))], [np.zeros((*lead, width))])
    grads = MlpParams(params.weights, params.biases)
    scale = 10.0 ** rng.uniform(-3, 3, (*lead, rows, width))  # magnitudes that round apart
    labels = rng.normal(size=scale.shape) * scale
    scratch = _step_scratch(params.weights, (*lead, rows))
    _loss_and_grads(params, grads, rng.normal(size=(*lead, rows, 1)), labels, 0.0, scratch)
    assert grads.biases[0].tobytes() == np.sum(scratch[0], axis=-2).tobytes()


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
