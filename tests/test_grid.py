import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from chemovir.grid import (
    Grid,
    State,
    _grad_norms_sq,
    _sup_norms,
    atomic_write,
    lp_norm,
    read_snapshot,
    write_snapshot,
)
from oracles import integrate


class TestGridGeometry:
    def test_derived_quantities(self):
        grid = Grid((4, 8), (2.0, 1.0))
        assert grid.ndim == 2
        assert grid.spacing == (0.5, 0.125)
        assert grid.cell_volume == 0.0625
        assert grid.n_cells == 32
        assert grid.volume == 2.0

    def test_default_unit_lengths(self):
        assert Grid((10,)).lengths == (1.0,)

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (), (4.7,), ("5",), (math.inf,), (math.nan,)])
    def test_rejects_small_axes(self, shape):
        with pytest.raises(ValueError):
            Grid(shape)

    @pytest.mark.parametrize("cells", [4.7, "5", math.inf, math.nan])
    def test_rejects_cell_count_that_is_not_a_whole_number(self, cells):
        with pytest.raises(ValueError, match="^cells must"):
            Grid((4, cells))

    @pytest.mark.parametrize("shape", [(10 ** 300,), (2 ** 60, 3), (2 ** 21,) * 3])
    def test_rejects_state_arrays_beyond_numpy_size(self, shape):
        # numpy cannot make the (3, *shape) float64 array: the message names
        # cells rather than numpy's "Maximum allowed size exceeded"
        with pytest.raises(ValueError, match="^cells must satisfy at most"):
            Grid(shape)
        Grid((2 ** 19,) * 3)  # 24 bytes for each of 2^57 cells still fit

    def test_whole_float_cell_count(self):
        assert Grid((4.0, np.int64(5))).shape == (4, 5)

    def test_ndim_bounded_by_the_cell_count_alone(self):
        assert Grid((4, 4, 4, 4)).ndim == 4
        assert Grid((5, 4, 3, 3, 3)).shape == (5, 4, 3, 3, 3)
        with pytest.raises(ValueError, match="^ndim"):
            Grid(())
        # 3^40 cells overflow numpy's largest array
        with pytest.raises(ValueError, match="^cells"):
            Grid((3,) * 40)
        # 36 axes of 3 cells fit; more are refused before the product is taken,
        # with a message that does not carry the shape
        assert Grid((3,) * 36).n_cells == 3 ** 36
        for axes in (37, 10 ** 5):
            with pytest.raises(ValueError) as excinfo:
                Grid((3,) * axes)
            assert str(excinfo.value) == f"cells must satisfy at most 36 axes of >= 3 cells, " \
                                         f"got {axes} axes"

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid((4,), (0.0,))

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(ValueError, match="lengths must be finite"):
            Grid((4, 4), (1.0, length))

    def test_cell_centers(self):
        centers = Grid((4,)).cell_centers(0)
        np.testing.assert_allclose(centers, [0.125, 0.375, 0.625, 0.875])


class TestIntegrate:
    """The oracle's midpoint rule, against which the records' masses are tested."""

    def test_constant_on_unit_box(self):
        grid = Grid((8, 8))
        assert integrate(grid.new_field(1.0), grid) == pytest.approx(1.0, rel=1e-15)

    def test_constant_scales_with_volume(self):
        grid = Grid((5, 5), (2.0, 3.0))
        assert integrate(grid.new_field(4.0), grid) == pytest.approx(24.0, rel=1e-14)

    def test_midpoint_exact_on_linear(self):
        grid = Grid((10,))
        assert integrate(grid.cell_centers(0), grid) == pytest.approx(0.5, rel=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid = Grid((6, 7))
        f, g = rng.normal(size=(2, 6, 7))
        lhs = integrate(2.5 * f - 1.25 * g, grid)
        rhs = 2.5 * integrate(f, grid) - 1.25 * integrate(g, grid)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestLpNorm:
    def test_constant_l2(self):
        grid = Grid((16,))
        assert lp_norm(grid.new_field(2.0), grid, 2) == pytest.approx(2.0, rel=1e-14)

    def test_sup_norm_single_spike(self):
        grid = Grid((10,))
        field = grid.new_field(0.0)
        field[3] = 5.0
        assert lp_norm(field, grid, math.inf) == 5.0

    def test_alternating_l1(self):
        grid = Grid((16,))
        field = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        assert lp_norm(field, grid, 1) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(np.zeros(8), Grid((8,)), 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^field shape \(5,\) does not match grid \(6,\)$"):
            lp_norm(np.zeros(5), Grid((6,)), 2)

    def test_monotone_and_triangle(self):
        rng = np.random.default_rng(11)
        grid = Grid((12,))
        for p in (1, 1.5, 2, 3, math.inf):
            for _ in range(25):
                f, g = rng.normal(size=(2, 12))
                assert lp_norm(f + g, grid, p) <= lp_norm(f, grid, p) + lp_norm(g, grid, p) + 1e-12
                smaller = np.where(np.abs(g) <= np.abs(f), g, f)
                assert lp_norm(smaller, grid, p) <= lp_norm(f, grid, p) + 1e-12


    def test_sup_norms_equal_the_max_of_abs_bit_for_bit(self):
        # from the max and the min alone: signs, -0.0 (an all-zero field reads
        # 0.0, not -0.0) and NaN as np.abs(values).max() gives them
        grid = Grid((6, 5))
        values = np.random.default_rng(3).normal(size=(4, 3) + grid.shape)
        values[0, 0] = -0.0
        values[0, 1] = -np.abs(values[0, 1])
        values[1, 2, 3, 1] = math.nan
        values[2, 0, 0, 0] = -math.inf
        sups = _sup_norms(values, grid)
        np.testing.assert_array_equal(sups, np.abs(values).max(axis=(2, 3)))
        assert repr(float(sups[0, 0])) == "0.0"
        assert repr(lp_norm(np.full(grid.shape, -0.0), grid, math.inf)) == "0.0"


class TestGradNormSq:
    def test_constant_is_zero_exactly(self):
        grid = Grid((9, 9))
        assert _grad_norms_sq(grid.new_field(3.7), grid) == 0.0

    @pytest.mark.parametrize("slope", [1.0, -2.0, 3.5])
    def test_exact_on_linear_1d(self, slope):
        grid = Grid((10,))
        field = slope * grid.cell_centers(0)
        assert abs(_grad_norms_sq(field, grid) - slope ** 2) <= 1e-12

    def test_cosine_against_analytic(self):
        grid = Grid((64,))
        field = np.cos(np.pi * grid.cell_centers(0))
        exact = np.pi ** 2 / 2.0  # integral of pi^2 sin^2(pi x)
        assert _grad_norms_sq(field, grid) == pytest.approx(exact, rel=0.02)

    def test_exact_on_linear_2d(self):
        grid = Grid((8, 12))
        x = grid.cell_centers(0)[:, None]
        y = grid.cell_centers(1)[None, :]
        field = 2.0 * x - 1.0 * y
        assert _grad_norms_sq(field, grid) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(9,), (7, 6), (5, 4, 3)])
    def test_equals_the_diff_formula_bit_for_bit(self, shape):
        # the squared differences are formed in place in one scratch buffer;
        # the sums equal those of np.diff's arrays, NaN included
        grid = Grid(shape)
        values = np.random.default_rng(8).normal(size=(3, 2) + shape)
        values[1, 0].flat[2] = math.nan
        expected = 0.0
        for axis, h in zip(range(2, values.ndim), grid.spacing):
            sq = (np.diff(values, axis=axis) / h) ** 2
            boundary = (np.take(sq, 0, axis).reshape(3, 2, -1).sum(-1)
                        + np.take(sq, -1, axis).reshape(3, 2, -1).sum(-1))
            expected += grid.cell_volume * (sq.reshape(3, 2, -1).sum(-1) + 0.5 * boundary)
        np.testing.assert_array_equal(_grad_norms_sq(values, grid), expected)
        assert math.isnan(_grad_norms_sq(values, grid)[1, 0])

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(5)
        grid = Grid((7, 6))
        field = rng.normal(size=(7, 6))
        assert _grad_norms_sq(field, grid) == _grad_norms_sq(field + 11.25, grid)


# zero, the smallest subnormal, a tiny normal, one ulp above 0.3, a huge value
EDGE_VALUES = [0.0, 5e-324, 1e-300, 0.30000000000000004, 1e300]


class TestSnapshotIO:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = Grid((4, 5), (1.0, 2.5))
        state = State(rng.uniform(0, 2, (4, 5)), rng.uniform(0, 1, (4, 5)),
                      rng.uniform(0, 1, (4, 5)), t=1.234567890123)
        path = tmp_path / "state.cvf"
        write_snapshot(path, state, grid)
        loaded, loaded_grid = read_snapshot(path)
        assert loaded_grid == grid
        assert loaded.t == state.t
        for name in ("u", "v", "w"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(state, name))

    def test_format_layout(self, tmp_path):
        grid = Grid((3,))
        state = State(grid.new_field(1.0), grid.new_field(0.0), grid.new_field(0.0), t=0.5)
        path = tmp_path / "state.cvf"
        write_snapshot(path, state, grid)
        data = path.read_bytes()
        header = b"CVF2\n1 3\n1\nt=0.5\n"
        assert data[:len(header)] == header
        assert len(data) == len(header) + 3 * 3 * 8
        assert np.frombuffer(data[len(header):], "<f8").tolist() == [1.0] * 3 + [0.0] * 6

    def test_exact_bytes(self, tmp_path):
        grid = Grid((5,))
        values = np.array(EDGE_VALUES)
        state = State(values, values[::-1], values, t=0.1)
        path = tmp_path / "state.cvf"
        write_snapshot(path, state, grid)
        payload = struct.pack("<15d", *EDGE_VALUES, *EDGE_VALUES[::-1], *EDGE_VALUES)
        assert path.read_bytes() == b"CVF2\n1 5\n1\nt=0.10000000000000001\n" + payload
        loaded, _ = read_snapshot(path)
        assert loaded.t == state.t
        assert loaded.fields.dtype == np.float64 and loaded.fields.dtype.isnative
        assert loaded.fields.tobytes() == state.fields.tobytes()

    def test_round_trip_unequal_axes_3d(self, tmp_path):
        # an axis or C/F order mix-up would scramble these distinct values
        grid = Grid((5, 4, 3), (1.0, 2.0, 0.75))
        values = np.arange(3 * 60, dtype=float).reshape(3, 5, 4, 3) / 7.0
        state = State(*values, t=2.5)
        path = tmp_path / "state.cvf"
        write_snapshot(path, state, grid)
        loaded, loaded_grid = read_snapshot(path)
        assert loaded_grid == grid
        assert loaded.fields.shape == (3, 5, 4, 3)
        np.testing.assert_array_equal(loaded.fields, values)

    def test_write_makes_no_copy_of_the_fields(self, tmp_path):
        # the header and the array's own buffer go to the file in turn
        grid = Grid((40, 32, 24))
        values = np.random.default_rng(4).uniform(0.0, 1.0, (3,) + grid.shape)
        state = State.from_fields(values, 0.25)
        write_snapshot(tmp_path / "warm.cvf", state, grid)
        tracemalloc.start()
        try:
            write_snapshot(tmp_path / "state.cvf", state, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * values.nbytes
        loaded, _ = read_snapshot(tmp_path / "state.cvf")
        assert loaded.fields.tobytes() == values.tobytes()

    def test_atomic_write_of_chunks(self, tmp_path):
        path = tmp_path / "chunks.bin"
        atomic_write(path, (b"head\n", np.arange(3.0), memoryview(b"tail")))
        assert path.read_bytes() == b"head\n" + np.arange(3.0).tobytes() + b"tail"

    def test_atomic_write_failure_leaves_the_target_untouched(self, tmp_path):
        # a chunk that cannot be written fails the write after the first one
        path = tmp_path / "state.cvf"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write(path, (b"head\n", "text in a binary write"))
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.cvf"]

    @pytest.mark.parametrize("header,message", [
        (b"2 3\n1\nt=0", "dimension header '2 3' is inconsistent"),
        (b"1 3 3\n1\nt=0", "dimension header '1 3 3' is inconsistent"),
        (b"\n1\nt=0", "dimension header '' is inconsistent"),
        (b"1 3\n1\ntime=0", "missing time line, got 'time=0'"),
    ], ids=["too-few-axes", "too-many-axes", "empty", "time-line"])
    def test_inconsistent_dimensions_and_missing_time_line(self, tmp_path, header, message):
        path = tmp_path / "state.cvf"
        path.write_bytes(b"CVF2\n" + header + b"\n" + np.ones(9).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_snapshot(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cvf"
        path.write_text("NOPE\n1 3\n1\nt=0\n")
        with pytest.raises(ValueError, match="CVF1"):
            read_snapshot(path)

    def test_rejects_cvf1(self, tmp_path):
        # the text format written before CVF2 is refused, not parsed
        path = tmp_path / "old.cvf"
        path.write_text("CVF1\n1 3\n1\nt=0\nu\n1\n1\n1\nv\n0\n0\n0\nw\n0\n0\n0\n")
        with pytest.raises(ValueError, match="not a CVF2 snapshot .*CVF1"):
            read_snapshot(path)

    @pytest.mark.parametrize("extra", [-8, -1, 1, 8])
    def test_rejects_payload_of_wrong_length(self, tmp_path, extra):
        # truncated (extra < 0) or with trailing bytes (extra > 0)
        header = b"CVF2\n1 3\n1\nt=0\n"
        path = tmp_path / "state.cvf"
        payload = struct.pack("<9d", *[1.0] * 9)
        path.write_bytes(header + (payload[:extra] if extra < 0 else payload + b"\0" * extra))
        with pytest.raises(ValueError, match=r"payload holds \d+ bytes, not the 3 \* 3 \* 8 = 72"):
            read_snapshot(path)

    @pytest.mark.parametrize("header,cells", [
        (b"1 x\n1\nt=0", 3),  # the dimension line does not parse
        (b"1 3\nzz\nt=0", 3),  # nor do the lengths
        (b"2 3 2\n1 1\nt=0", 6),  # a shape Grid refuses: an axis of 2 cells
        (b"1 3\n1\nt=abc", 3),  # nor does the time, with a full payload
        (b"1 3\n1\nt=nan", 3),  # a time that parses but is not finite
        (b"1 3\n1\nt=inf", 3),
    ], ids=["dimensions", "lengths", "two-cell-axis", "time", "nan-time", "inf-time"])
    def test_header_errors_name_the_file(self, tmp_path, header, cells):
        path = tmp_path / "state.cvf"
        path.write_bytes(b"CVF2\n" + header + b"\n" + np.ones(3 * cells).astype("<f8").tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_snapshot(path)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_write_refuses_a_time_it_could_not_read_back(self, tmp_path, t):
        grid = Grid((3,))
        state = State(grid.new_field(1.0), grid.new_field(0.0), grid.new_field(0.0), t=t)
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            write_snapshot(tmp_path / "state.cvf", state, grid)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value,message", [(math.nan, "non-finite"), (math.inf, "non-finite"),
                                               (-1.0, "negative")])
    def test_rejects_invalid_payload_value(self, tmp_path, value, message):
        path = tmp_path / "state.cvf"
        values = [1.0] * 9
        values[4] = value
        path.write_bytes(b"CVF2\n1 3\n1\nt=0\n" + struct.pack("<9d", *values))
        with pytest.raises(ValueError, match=f"v contains {message} values"):
            read_snapshot(path)


class TestStateValidation:
    def test_rejects_negative_component(self):
        grid = Grid((4,))
        state = State(grid.new_field(1.0), grid.new_field(-0.1), grid.new_field(0.0))
        with pytest.raises(ValueError, match="negative"):
            state.validate(grid)

    def test_rejects_non_finite(self):
        grid = Grid((4,))
        u = grid.new_field(1.0)
        u[2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            State(u, grid.new_field(0.0), grid.new_field(0.0)).validate(grid)

    @pytest.mark.parametrize("values,message", [
        ((math.nan, -1.0), "v contains non-finite values"),  # NaN before the negative value
        ((-1.0, math.nan), "v contains non-finite values"),
        ((-math.inf, 1.0), "v contains non-finite values"),
        ((2.0, -1e-300), "v contains negative values"),
    ], ids=["nan-then-negative", "negative-then-nan", "minus-inf", "negative"])
    def test_each_field_reports_its_first_fault(self, values, message):
        grid = Grid((3, 4))
        v = grid.new_field(1.0)
        v[0, 1], v[2, 0] = values
        w = grid.new_field(-1.0)  # a later field's fault is not the one reported
        with pytest.raises(ValueError, match=f"^{message}$"):
            State(grid.new_field(0.5), v, w).validate(grid)

    def test_fields_report_in_order(self):
        grid = Grid((4,))
        u, v = grid.new_field(1.0), grid.new_field(1.0)
        u[3], v[0] = -2.0, math.nan
        with pytest.raises(ValueError, match="^u contains negative values$"):
            State(u, v, grid.new_field(0.0)).validate(grid)

    def test_negative_zero_passes(self):
        grid = Grid((4, 3))
        State(grid.new_field(-0.0), grid.new_field(0.0), grid.new_field(-0.0)).validate(grid)

    def test_rejects_fields_off_the_grid(self):
        state = State(np.ones(5), np.ones(5), np.ones(5))
        with pytest.raises(ValueError, match=r"^u shape \(5,\) does not match grid \(4,\)$"):
            state.validate(Grid((4,)))


class TestStateLayout:
    def test_fields_are_one_read_only_array(self):
        grid = Grid((4, 3))
        u = grid.new_field(1.0)
        state = State(u, grid.new_field(2.0), grid.new_field(3.0), t=0.5)
        assert state.fields.shape == (3, 4, 3)
        for row, name in enumerate("uvw"):
            view = getattr(state, name)
            assert np.shares_memory(view, state.fields)
            np.testing.assert_array_equal(view, row + 1.0)
        u[0, 0] = 9.0  # the state holds its own copy of the inputs
        assert state.u[0, 0] == 1.0
        with pytest.raises(ValueError):
            state.w[0, 0] = 0.0
