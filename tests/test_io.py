"""Container round-trips and validation for cubes, masks, and intensity maps."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from acdkit.core import (
    GroundTruthMask,
    HyperCube,
    IntensityMap,
    _float_matrix,
    _pixel_map,
    cube_to_map,
    flatten,
    map_to_cube,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
    write_pgm,
)
from acdkit.errors import DataIOError, NumericalError, ValidationError
from helpers import peak_in_pixel_matrices


def _write_pair(tmp_path, name, height, width, bands, values, **overrides):
    header = {
        "height": height,
        "width": width,
        "bands": bands,
        "dtype": "f32",
        "interleave": "bsq",
        "raw": f"{name}.raw",
    }
    header.update(overrides)
    header_path = tmp_path / f"{name}.json"
    header_path.write_text(json.dumps(header), encoding="utf-8")
    (tmp_path / f"{name}.raw").write_bytes(np.asarray(values, dtype="<f4").tobytes())
    return header_path


class TestReadCube:
    def test_small_cube_values_land_row_major(self, tmp_path):
        path = _write_pair(tmp_path, "c", 2, 2, 1, [1, 2, 3, 4])
        cube = read_cube(path)
        assert cube.shape == (2, 2, 1)
        assert_array_equal(cube.data[:, :, 0], [[1, 2], [3, 4]])

    def test_header_raw_size_mismatch(self, tmp_path):
        path = _write_pair(tmp_path, "c", 2, 2, 2, [1, 2, 3, 4])
        with pytest.raises(DataIOError, match="bytes"):
            read_cube(path)

    def test_band_sequential_order(self, tmp_path):
        # Band 0's full plane first: plane0 = {1,2,3,4}, plane1 = {5,6,7,8}.
        path = _write_pair(tmp_path, "c", 2, 2, 2, [1, 2, 3, 4, 5, 6, 7, 8])
        cube = read_cube(path)
        assert_array_equal(cube.data[0, 0], [1, 5])
        assert_array_equal(cube.data[1, 1], [4, 8])

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataIOError):
            read_cube(tmp_path / "absent.json")

    def test_missing_raw(self, tmp_path):
        path = _write_pair(tmp_path, "c", 1, 1, 1, [1.0])
        (tmp_path / "c.raw").unlink()
        with pytest.raises(DataIOError):
            read_cube(path)

    def test_unsupported_dtype(self, tmp_path):
        path = _write_pair(tmp_path, "c", 1, 1, 1, [1.0], dtype="f64")
        with pytest.raises(DataIOError, match="dtype"):
            read_cube(path)

    def test_non_finite_payload(self, tmp_path):
        path = _write_pair(tmp_path, "c", 1, 1, 2, [1.0, np.nan])
        with pytest.raises(DataIOError, match="NaN or Inf"):
            read_cube(path)

    def test_non_finite_value_in_a_later_block(self, tmp_path, monkeypatch):
        values = np.arange(30.0)
        values[-1] = np.inf
        path = _write_pair(tmp_path, "c", 5, 3, 2, values)
        monkeypatch.setattr("acdkit.core._BLOCK", 4)
        with pytest.raises(DataIOError, match="NaN or Inf"):
            read_cube(path)

    def test_row_blocks_and_tail_land_in_place(self, tmp_path, monkeypatch):
        # 30 pixels in blocks of 7: the last block takes the remainder, 9 pixels.
        rng = np.random.default_rng(3)
        cube = HyperCube(rng.normal(size=(5, 6, 3)).astype(np.float32))
        write_cube(cube, tmp_path / "c.json")
        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        again = read_cube(tmp_path / "c.json")
        assert again.data.tobytes() == cube.data.tobytes()
        assert again.data.flags.c_contiguous and not again.data.flags.writeable

    def test_holds_a_float32_cube_and_one_row_block(self, tmp_path):
        # The float32 cube is half a float64 pixel matrix; a float64 cube
        # would be one, and reading the whole payload first would add half.
        cube = HyperCube(np.ones((128, 128, 16), dtype=np.float32))
        write_cube(cube, tmp_path / "c.json")
        assert peak_in_pixel_matrices(lambda: read_cube(tmp_path / "c.json"), cube) <= 0.6

    def test_flatten_is_a_read_only_float32_view(self, tmp_path):
        write_cube(HyperCube(np.arange(24.0).reshape(2, 3, 4)), tmp_path / "c.json")
        cube = read_cube(tmp_path / "c.json")
        pixels = flatten(cube)
        assert cube.data.dtype == pixels.dtype == np.float32
        assert not pixels.flags.writeable
        assert np.shares_memory(pixels, cube.data)

    def test_malformed_header_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataIOError, match="malformed"):
            read_cube(path)

    @pytest.mark.parametrize(
        "header",
        [
            b'{"height": 8, "width": 1, "bands": 1, "dtype": "f32", "interleave": "bsq", '
            b'"raw": "c\xe9.raw"}',
            b'"c.raw"',
            {"height": None},
            {"raw": 5},
            {"height": "8"},
            {"height": 8.9},
        ],
        ids=["non-utf8", "json-string", "height-null", "raw-int", "height-str", "height-float"],
    )
    def test_malformed_header_is_io_error(self, tmp_path, header):
        # The payload fits an 8 x 1 x 1 cube, so only the header is at fault.
        path = _write_pair(tmp_path, "c", 8, 1, 1, np.arange(8.0))
        if isinstance(header, bytes):
            path.write_bytes(header)
        else:
            fields = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps({**fields, **header}), encoding="utf-8")
        with pytest.raises(DataIOError, match="malformed cube header"):
            read_cube(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"height": 1, "width": 1}), encoding="utf-8")
        with pytest.raises(DataIOError, match="missing field"):
            read_cube(path)


class TestWriteCube:
    def test_raw_payload_is_four_bytes_per_value(self, tmp_path):
        write_cube(HyperCube(np.array([5.0, 6.0, 7.0]).reshape(1, 1, 3)), tmp_path / "c.json")
        assert (tmp_path / "c.raw").stat().st_size == 12

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        cube = HyperCube(rng.normal(size=(4, 4, 8)).astype(np.float32))
        write_cube(cube, tmp_path / "c.json")
        again = read_cube(tmp_path / "c.json")
        assert again.data.tobytes() == cube.data.tobytes()

    def test_unwritable_path(self, tmp_path):
        cube = HyperCube(np.ones((1, 1, 1), dtype=np.float32))
        with pytest.raises(DataIOError, match="cannot write"):
            write_cube(cube, tmp_path / "no_such_dir" / "c.json")


class TestFlatten:
    def test_rows_follow_row_major_spatial_order(self):
        data = np.array([[[1, 2], [3, 4]]], dtype=np.float32)  # 1 x 2 x 2
        assert_array_equal(flatten(HyperCube(data)), [[1, 2], [3, 4]])

    def test_single_pixel_cube_is_one_row(self):
        spectrum = np.arange(6, dtype=np.float32)
        matrix = flatten(HyperCube(spectrum.reshape(1, 1, 6)))
        assert matrix.shape == (1, 6)
        assert_array_equal(matrix[0], spectrum)

    def test_row_index_formula(self):
        rng = np.random.default_rng(11)
        cube = HyperCube(rng.normal(size=(4, 6, 3)).astype(np.float32))
        matrix = flatten(cube)
        for r, c in ((0, 0), (1, 4), (3, 5), (2, 2)):
            assert_array_equal(matrix[r * 6 + c], cube.data[r, c].astype(np.float64))

    def test_is_a_view_of_the_cube(self):
        cube = HyperCube(np.ones((3, 4, 2), dtype=np.float32))
        assert np.shares_memory(flatten(cube), cube.data)


class TestFloatMatrix:
    def test_keeps_float32_and_float64_as_they_are(self):
        for dtype in (np.float32, np.float64):
            m = np.ones((3, 2), dtype=dtype)
            assert _float_matrix(m) is m

    def test_promotes_anything_else_to_float64(self):
        for values in (np.ones((3, 2), dtype=np.int64), np.ones((3, 2), dtype=np.float16),
                       [[1, 2], [3, 4]]):
            m = _float_matrix(values)
            assert m.dtype == np.float64
            assert_array_equal(m, np.asarray(values, dtype=np.float64))


class TestPixelMap:
    def test_blocks_fold_a_short_tail_into_the_last(self, monkeypatch):
        # 30 rows in blocks of 7: the last block takes the remainder, 9 rows.
        parts = []

        def score(part):
            parts.append(part)
            return np.arange(part.start, part.stop, dtype=np.float64)

        monkeypatch.setattr("acdkit.core._BLOCK", 7)
        result = _pixel_map(score, 30, (5, 6))
        assert [part.stop - part.start for part in parts] == [7, 7, 7, 9]
        assert_array_equal(result.values, np.arange(30.0).reshape(5, 6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_is_numerical_error(self, bad):
        def score(part):
            values = np.ones(part.stop - part.start)
            values[-1] = bad
            return values

        with pytest.raises(NumericalError, match="NaN or Inf"):
            _pixel_map(score, 12, (3, 4))


class TestReadMask:
    def _write_pgm(self, path, width, height, data, maxval=255):
        path.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + bytes(data))

    def test_nonzero_bytes_become_anomaly(self, tmp_path):
        path = tmp_path / "m.pgm"
        self._write_pgm(path, 2, 2, [0, 255, 0, 0])
        mask = read_mask(path)
        assert_array_equal(mask.labels, [[0, 1], [0, 0]])

    def test_byte_128_is_anomaly(self, tmp_path):
        path = tmp_path / "m.pgm"
        self._write_pgm(path, 2, 1, [128, 0])
        assert_array_equal(read_mask(path).labels, [[1, 0]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.pgm"
        self._write_pgm(path, 3, 3, [0, 1, 0])
        with pytest.raises(DataIOError, match="bytes"):
            read_mask(path)

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n" + bytes([0, 9]))
        assert_array_equal(read_mask(path).labels, [[0, 1]])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 1\n")
        with pytest.raises(DataIOError, match="P5"):
            read_mask(path)

    def test_expected_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.pgm"
        self._write_pgm(path, 2, 2, [0, 1, 0, 0])
        with pytest.raises(ValidationError, match="shape"):
            read_mask(path, expected_shape=(4, 4))

    def test_expected_shape_match(self, tmp_path):
        path = tmp_path / "m.pgm"
        self._write_pgm(path, 3, 2, [0, 0, 0, 1, 0, 0])
        mask = read_mask(path, expected_shape=(2, 3))
        assert mask.anomaly_count == 1


class TestTypeValidation:
    def test_cube_rejects_wrong_rank(self):
        with pytest.raises(ValidationError, match="3-D"):
            HyperCube(np.ones((2, 2)))

    def test_cube_rejects_non_finite(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(ValidationError, match="NaN or Inf"):
            HyperCube(data)
        data.flags.writeable = False  # taken over without a copy, and still checked
        with pytest.raises(ValidationError, match="NaN or Inf"):
            HyperCube(data)

    def test_cube_beyond_float32_is_numerical_error(self):
        # Finite float64 input that overflows the float32 rounding is an
        # overflow (exit 3), not bad data; with warnings as errors, the
        # cast itself must stay silent.
        data = np.ones((2, 2, 2))
        data[1, 0, 1] = -1e39
        with pytest.raises(NumericalError, match=r"cube peak 1e\+39 exceeds the float32 limit"):
            HyperCube(data)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            HyperCube(data)

    def test_cube_copies_float32_and_rounds_other_input_once(self):
        narrow = np.array([1.0, 0.1, -2.5e-40], dtype=np.float32).reshape(1, 1, 3)
        cube = HyperCube(narrow)
        assert cube.data.dtype == np.float32 and cube.data.flags.c_contiguous
        assert cube.data.tobytes() == narrow.tobytes()
        assert not np.shares_memory(cube.data, narrow)
        wide = np.array([0.1, 1 / 3, 3.4e38]).reshape(1, 3, 1)
        assert HyperCube(wide).data.tobytes() == wide.astype(np.float32).tobytes()
        assert HyperCube(np.arange(6).reshape(1, 2, 3)).data.dtype == np.float32

    def test_cube_takes_over_only_a_read_only_c_contiguous_float32_array_it_owns(self):
        owned = np.arange(24, dtype=np.float32).reshape(2, 3, 4).copy()
        writable = owned.copy()
        owned.flags.writeable = False
        assert np.shares_memory(HyperCube(owned).data, owned)
        view = writable.view()  # read-only, but its base can still change
        fortran = np.asfortranarray(writable)
        view.flags.writeable = fortran.flags.writeable = False
        for given in (writable, view, fortran):
            cube = HyperCube(given)
            assert not np.shares_memory(cube.data, given)
            assert cube.data.tobytes() == writable.tobytes()
            assert cube.data.flags.c_contiguous and not cube.data.flags.writeable
        assert writable.flags.writeable

    def test_cube_data_is_read_only(self):
        cube = HyperCube(np.ones((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="read-only"):
            cube.data[0, 0, 0] = 2.0

    def test_mask_requires_background(self):
        with pytest.raises(ValidationError, match="background"):
            GroundTruthMask(np.ones((2, 2), dtype=np.uint8))

    def test_intensity_map_rejects_negative(self):
        values = np.zeros((2, 2))
        values[1, 1] = -1e-9
        with pytest.raises(ValidationError, match="negative"):
            IntensityMap(values)

    def test_intensity_map_accepts_zero_floor(self):
        imap = IntensityMap(np.zeros((3, 3)))
        assert imap.values.min() == 0.0

    def test_intensity_map_rejects_nan(self):
        values = np.zeros((2, 2))
        values[0, 0] = np.nan
        with pytest.raises(ValidationError):
            IntensityMap(values)


class TestMapConversions:
    def test_map_to_cube_round_trip(self):
        rng = np.random.default_rng(5)
        imap = IntensityMap(np.abs(rng.normal(size=(6, 4))))
        again = cube_to_map(map_to_cube(imap))
        # One float32 cast is allowed on the way through the container.
        assert_array_equal(again.values, imap.values.astype(np.float32).astype(np.float64))

    def test_map_beyond_float32_is_numerical_error(self):
        limit = float(np.finfo(np.float32).max)
        assert map_to_cube(IntensityMap(np.array([[0.0, limit]]))).data.max() == np.float32(limit)
        # With RuntimeWarnings as errors, an overflowing cast would surface as one.
        with pytest.raises(NumericalError, match=r"peak 1e\+39 exceeds the float32 limit"):
            map_to_cube(IntensityMap(np.array([[1.0, 1e39]])))

    def test_cube_to_map_requires_single_band(self):
        with pytest.raises(ValidationError, match="1-band"):
            cube_to_map(HyperCube(np.ones((2, 2, 3), dtype=np.float32)))


class TestRoundTripProperties:
    def test_cube_round_trips_random_shapes(self, tmp_path):
        rng = np.random.default_rng(19)
        for i in range(20):
            shape = tuple(int(rng.integers(1, 9)) for _ in range(3))
            cube = HyperCube((rng.normal(size=shape) * 100).astype(np.float32))
            path = tmp_path / f"cube_{i}.json"
            write_cube(cube, path)
            again = read_cube(path)
            assert again.shape == cube.shape
            assert again.data.tobytes() == cube.data.tobytes()
            assert_array_equal(flatten(cube).reshape(shape).astype(np.float32), cube.data)

    def test_mask_round_trips_random_shapes(self, tmp_path):
        rng = np.random.default_rng(23)
        for i in range(20):
            h, w = (int(rng.integers(1, 17)) for _ in range(2))
            labels = (rng.random((h, w)) < 0.3).astype(np.uint8)
            labels[0, 0] = 0  # keep at least one background pixel
            mask = GroundTruthMask(labels)
            path = tmp_path / f"mask_{i}.pgm"
            write_mask(mask, path)
            assert_array_equal(read_mask(path).labels, mask.labels)

    def test_write_pgm_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(np.ones((2, 2, 2)), tmp_path / "bad.pgm")
