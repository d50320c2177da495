"""A cube's float32 storage changes no bit of any detector's result.

Cubes hold float32 values, and every consumer widens one row block (or one
gathered sample set) to float64 before any arithmetic. So running each step
on the float32 pixel matrices gives the same bits as running it on float64
copies of them. The 41 x 50 scene has 2050 pixels, two 1024-row blocks with
a 2-row tail folded into the last; the 64 x 64 scene has four whole blocks.
"""

import numpy as np
import pytest

from acdkit.baselines import diff_rx, fit_cc, fit_ce
from acdkit.core import flatten, loss_map
from acdkit.predetect import select_samples, usfa_fit, usfa_intensity
from acdkit.synth import AnomalyRect, SceneSpec, generate


@pytest.fixture(scope="module", params=[(41, 50), (64, 64)], ids=["41x50", "64x64"])
def matrices(request):
    height, width = request.param
    x, y, _ = generate(
        SceneSpec(height=height, width=width, bands=16, n_endmembers=6, condition="nonlinear",
                  condition_strength=0.8, noise_sigma=0.01,
                  anomalies=(AnomalyRect(30, 20, 3, 3),), seed=5)
    )
    fx, fy = flatten(x), flatten(y)
    assert fx.dtype == fy.dtype == np.float32
    return fx, fy, fx.astype(np.float64), fy.astype(np.float64), (height, width)


def _same(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def test_diff_rx(matrices):
    fx, fy, wx, wy, plane = matrices
    _same(diff_rx(fx, fy, plane).values, diff_rx(wx, wy, plane).values)


@pytest.mark.parametrize("fit", [fit_cc, fit_ce], ids=["cc", "ce"])
def test_linear_predictor_and_loss_map(matrices, fit):
    fx, fy, wx, wy, plane = matrices
    narrow, wide = fit(fx, fy), fit(wx, wy)
    for field in ("gain", "mean_in", "mean_out"):
        _same(getattr(narrow, field), getattr(wide, field))
    _same(
        loss_map(narrow.predict, fx, fy, plane).values,
        loss_map(wide.predict, wx, wy, plane).values,
    )


def test_slow_features_and_samples(matrices):
    fx, fy, wx, wy, plane = matrices
    narrow, wide = usfa_fit(fx, fy), usfa_fit(wx, wy)
    for field in ("projection", "eigenvalues", "mean"):
        _same(getattr(narrow, field), getattr(wide, field))
    assert narrow.fallback == wide.fallback
    intensity = usfa_intensity(narrow, fx, fy, plane)
    _same(intensity.values, usfa_intensity(wide, wx, wy, plane).values)
    picked = select_samples(fx, fy, intensity, 200, seed=3)
    again = select_samples(wx, wy, intensity, 200, seed=3)
    _same(picked.inputs, again.inputs)
    _same(picked.labels, again.labels)
    assert np.array_equal(picked.indices, again.indices)
