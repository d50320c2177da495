"""ROC/AUC scoring, percentile stretching, and curve/map export."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from acdkit.core import GroundTruthMask, IntensityMap, read_mask
from acdkit.errors import ValidationError
from acdkit.evaluate import (
    RocCurve,
    export_curve,
    export_map_pgm,
    roc,
    stretch2,
)
from helpers import mann_whitney_auc


def _labeled_map(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    return IntensityMap(scores), GroundTruthMask(np.asarray(labels))


class TestRoc:
    def test_perfect_separation(self):
        imap, truth = _labeled_map([[0.0, 1.0], [2.0, 3.0]], [[0, 0], [1, 1]])
        assert roc(imap, truth).auc == 1.0

    def test_constant_scores_are_uninformative(self):
        imap, truth = _labeled_map(np.full((2, 2), 7.0), [[0, 0], [1, 1]])
        curve = roc(imap, truth)
        assert curve.auc == 0.5
        assert list(zip(curve.far, curve.dr)) == [(0.0, 0.0), (1.0, 1.0)]

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(10, 20))
        labels = (rng.random((10, 20)) < 0.3).astype(np.uint8)
        labels[0, 0], labels[0, 1] = 0, 1  # both classes present
        curve = roc(IntensityMap(np.abs(scores)), GroundTruthMask(labels))
        flat, lab = np.abs(scores).ravel(), labels.ravel()
        expected = mann_whitney_auc(flat[lab == 1], flat[lab == 0])
        assert abs(curve.auc - expected) < 1e-9

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        scores = np.round(np.abs(rng.normal(size=(8, 25))), 1)  # force ties
        labels = (rng.random((8, 25)) < 0.25).astype(np.uint8)
        labels[0, 0], labels[0, 1] = 0, 1
        curve = roc(IntensityMap(scores), GroundTruthMask(labels))
        flat, lab = scores.ravel(), labels.ravel()
        expected = mann_whitney_auc(flat[lab == 1], flat[lab == 0])
        assert abs(curve.auc - expected) < 1e-9

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(7)
        imap = IntensityMap(np.abs(rng.normal(size=(12, 12))))
        labels = np.zeros((12, 12), dtype=np.uint8)
        labels[3:6, 3:6] = 1
        curve = roc(imap, GroundTruthMask(labels))
        assert (curve.far[0], curve.dr[0]) == (0.0, 0.0)
        assert (curve.far[-1], curve.dr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.far) >= 0)
        assert np.all(np.diff(curve.dr) >= 0)
        assert curve.thresholds[0] == np.inf

    def test_dimension_mismatch(self):
        imap = IntensityMap(np.zeros((3, 3)))
        truth = GroundTruthMask(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValidationError, match="disagree"):
            roc(imap, truth)

    def test_truth_without_anomalies(self):
        imap = IntensityMap(np.ones((2, 2)))
        truth = GroundTruthMask(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValidationError, match="no anomaly"):
            roc(imap, truth)

    def test_auc_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(9)
        scores = np.abs(rng.normal(size=(10, 10)))
        labels = (rng.random((10, 10)) < 0.2).astype(np.uint8)
        labels[0, 0], labels[0, 1] = 0, 1
        truth = GroundTruthMask(labels)
        base = roc(IntensityMap(scores), truth).auc
        assert abs(roc(IntensityMap(np.exp(scores)), truth).auc - base) < 1e-12
        assert abs(roc(IntensityMap(3.5 * scores + 2.0), truth).auc - base) < 1e-12

    def test_score_reversal_complements_auc(self):
        rng = np.random.default_rng(11)
        scores = rng.permutation(100).astype(np.float64).reshape(10, 10)  # no ties
        labels = (rng.random((10, 10)) < 0.3).astype(np.uint8)
        labels[0, 0], labels[0, 1] = 0, 1
        truth = GroundTruthMask(labels)
        forward = roc(IntensityMap(scores), truth).auc
        reversed_ = roc(IntensityMap(scores.max() - scores), truth).auc
        assert forward + reversed_ == pytest.approx(1.0, abs=1e-12)


class TestRocCurveValidation:
    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValidationError, match=r"\(0, 0\) to \(1, 1\)"):
            RocCurve(np.array([np.inf, 1.0]), np.array([0.1, 1.0]), np.array([0.0, 1.0]), 0.5)

    def test_rejects_decreasing_rates(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            RocCurve(
                np.array([np.inf, 3.0, 2.0, 1.0]),
                np.array([0.0, 0.2, 0.5, 1.0]),
                np.array([0.0, 0.5, 0.3, 1.0]),
                0.5,
            )
        # a valid 3-point curve for contrast
        RocCurve(
            np.array([np.inf, 2.0, 1.0]),
            np.array([0.0, 0.5, 1.0]),
            np.array([0.0, 1.0, 1.0]),
            0.75,
        )

    def test_rejects_non_descending_thresholds(self):
        with pytest.raises(ValidationError, match="descending"):
            RocCurve(
                np.array([np.inf, 1.0, 1.0]),
                np.array([0.0, 0.5, 1.0]),
                np.array([0.0, 0.5, 1.0]),
                0.5,
            )


class TestStretch2:
    def test_constant_map_is_all_zeros(self):
        out = stretch2(IntensityMap(np.full((5, 5), 3.3)))
        assert out.dtype == np.uint8
        assert_array_equal(out, np.zeros((5, 5), dtype=np.uint8))

    def test_uniform_ramp_percentiles(self):
        values = np.arange(101, dtype=np.float64).reshape(101, 1)
        out = stretch2(IntensityMap(values)).ravel()
        # 2nd/98th percentiles of 0..100 are exactly 2 and 98.
        assert np.all(out[98:] == 255)
        assert np.all(out[:3] == 0)
        assert out[50] == 128  # (50-2)/96*255 = 127.5, rounded half away from zero

    def test_hand_computed_five_values(self):
        # percentiles of {0,10,15,30,40}: lo=0.8, hi=39.2, range 38.4;
        # 10 -> 61.09, 15 -> 94.30, 30 -> 193.91 (all clear of .5 boundaries)
        out = stretch2(IntensityMap(np.array([[0.0, 10.0, 15.0, 30.0, 40.0]])))
        assert_array_equal(out, [[0, 61, 94, 194, 255]])

    def test_monotone_in_input(self):
        rng = np.random.default_rng(13)
        values = np.abs(rng.normal(size=(16, 16)))
        out = stretch2(IntensityMap(values))
        order = np.argsort(values.ravel(), kind="stable")
        assert np.all(np.diff(out.ravel()[order].astype(np.int64)) >= 0)

    def test_output_covers_full_range_for_spread_input(self):
        rng = np.random.default_rng(15)
        out = stretch2(IntensityMap(np.abs(rng.normal(size=(20, 20)))))
        assert out.min() == 0
        assert out.max() == 255


class TestExport:
    def _curve(self):
        rng = np.random.default_rng(17)
        scores = np.abs(rng.normal(size=(8, 8)))
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[2:4, 2:4] = 1
        return roc(IntensityMap(scores), GroundTruthMask(labels))

    def test_curve_round_trip_is_exact(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for column, name in enumerate(("thresholds", "far", "dr")):
            assert rows[:, column].tobytes() == getattr(curve, name).tobytes()
        assert path.read_text().splitlines()[-1] == f"# auc={curve.auc:.6f}"

    def test_csv_header_and_auc_comment(self, tmp_path):
        curve = self._curve()
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,far,dr"
        assert lines[-1] == f"# auc={curve.auc:.6f}"

    def test_pgm_dimensions_match_map(self, tmp_path):
        rng = np.random.default_rng(19)
        imap = IntensityMap(np.abs(rng.normal(size=(9, 13))))
        path = tmp_path / "map.pgm"
        export_map_pgm(imap, path)
        rendered = read_mask(path)  # any PGM reader works for the dims check
        assert rendered.labels.shape == (9, 13)

    def test_map_export_round_trips_through_container(self, tmp_path):
        from acdkit.core import cube_to_map, map_to_cube, read_cube, write_cube

        rng = np.random.default_rng(21)
        imap = IntensityMap(np.abs(rng.normal(size=(6, 7)).astype(np.float32)))
        path = tmp_path / "map.json"
        write_cube(map_to_cube(imap), path)
        again = cube_to_map(read_cube(path))
        assert_array_equal(again.values, imap.values)
