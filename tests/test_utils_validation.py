"""Tests for repro.utils.validation."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.utils import validation
from repro.utils.validation import (
    array_crc32,
    check_array_2d,
    check_in_range,
    check_positive_int,
    check_same_length,
)


class TestCheckArray2d:
    def test_passthrough(self):
        x = np.ones((3, 4), dtype=np.float32)
        out = check_array_2d(x)
        assert out.shape == (3, 4) and out.dtype == np.float32

    def test_1d_promoted_to_row(self):
        out = check_array_2d(np.arange(5, dtype=np.float32))
        assert out.shape == (1, 5)

    def test_list_coerced(self):
        out = check_array_2d([[1.0, 2.0], [3.0, 4.0]])
        assert out.shape == (2, 2) and out.dtype == np.float32

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array_2d(np.zeros((2, 2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_array_2d(np.zeros((0, 3)))

    def test_nan_rejected(self):
        x = np.ones((2, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_array_2d(x)

    def test_inf_rejected(self):
        x = np.ones((2, 2))
        x[1, 1] = np.inf
        with pytest.raises(ValueError):
            check_array_2d(x)

    def test_contiguous_output(self):
        x = np.asfortranarray(np.ones((4, 5), dtype=np.float32))
        out = check_array_2d(x)
        assert out.flags["C_CONTIGUOUS"]


class TestBlockwiseFiniteness:
    """Finiteness is checked over row blocks; every block is covered."""

    COLS = 54
    BLOCK_ROWS = validation._FINITE_BLOCK // COLS

    def matrix(self):
        rows = 3 * self.BLOCK_ROWS + 7  # three full blocks and a ragged tail
        return np.ones((rows, self.COLS), dtype=np.float32)

    def positions(self):
        last = 3 * self.BLOCK_ROWS + 6
        edge = 2 * self.BLOCK_ROWS
        return [
            (0, 0),
            (last, self.COLS - 1),
            (edge - 1, self.COLS - 1),  # last element of block 1
            (edge, 0),  # first element of block 2
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_anywhere(self, bad):
        for row, col in self.positions():
            x = self.matrix()
            x[row, col] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                check_array_2d(x)

    def test_matrix_spans_three_blocks(self):
        assert self.matrix().shape[0] > 3 * self.BLOCK_ROWS

    def test_largest_finite_float32_accepted(self):
        x = np.full((3 * self.BLOCK_ROWS + 7, self.COLS), 3.4e38, np.float32)
        assert check_array_2d(x) is x

    def test_one_block_mask_at_most(self):
        x = np.ones((100_000, 54), dtype=np.float32)
        tracemalloc.start()
        try:
            check_array_2d(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestArrayCrc32:
    @pytest.mark.parametrize(
        "dtype", [np.int32, np.float32, np.int64, np.uint16, np.float16, bool]
    )
    def test_equals_crc_of_byte_copy(self, dtype):
        a = (np.arange(600) % 7).astype(dtype).reshape(20, 30)
        for arr in (a, a.T, a[:, ::3]):
            copy = np.ascontiguousarray(arr).tobytes()
            assert array_crc32(arr) == zlib.crc32(copy)
            assert array_crc32(arr, 123) == zlib.crc32(copy, 123)


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_numpy_int(self):
        assert check_positive_int(np.int64(4), "x") == 4

    def test_minimum_enforced(self):
        with pytest.raises(ValueError):
            check_positive_int(1, "x", minimum=2)

    def test_zero_default_rejected(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")


class TestCheckInRange:
    def test_valid(self):
        assert check_in_range(0.5, "x", 0, 1) == 0.5

    def test_bounds_inclusive(self):
        assert check_in_range(0, "x", 0, 1) == 0.0
        assert check_in_range(1, "x", 0, 1) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range(1.5, "x", 0, 1)


class TestCheckSameLength:
    def test_equal(self):
        assert check_same_length([1, 2], [3, 4]) == 2

    def test_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            check_same_length([1], [2, 3], names=["a", "b"])

    def test_no_arrays(self):
        with pytest.raises(ValueError):
            check_same_length()
