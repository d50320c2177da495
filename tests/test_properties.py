"""Property tests for the scoring maths: AUC rank invariance and min-fusion dominance.

Hypothesis draws the inputs; `derandomize=True` makes every run draw the same
examples, so a failure reproduces and CI stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acdkit.acda import fuse_min
from acdkit.core import GroundTruthMask, IntensityMap
from acdkit.evaluate import roc

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
