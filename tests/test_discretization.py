import math
import tracemalloc

import numpy as np
import pytest

from chemovir import discretization
from chemovir.discretization import chemotaxis_divergence, helmholtz_solve, laplacian_neumann
from chemovir.grid import Grid, lp_norm
from oracles import integrate


def random_grid(ndim, rng):
    shapes = {1: [(16,), (33,)], 2: [(8, 9), (12, 5)], 3: [(4, 5, 6), (3, 7, 4)],
              4: [(5, 4, 3, 6), (3, 6, 4, 4)], 5: [(4, 3, 5, 3, 4), (3, 4, 3, 3, 5)]}
    shape = shapes[ndim][rng.integers(0, 2)]
    lengths = tuple(float(L) for L in rng.uniform(0.5, 2.0, ndim))
    return Grid(shape, lengths)


class TestLaplacian:
    def test_constant_gives_zero(self):
        grid = Grid((6, 6))
        np.testing.assert_array_equal(laplacian_neumann(grid.new_field(2.0), grid), 0.0)

    def test_quadratic_interior_exact(self):
        # central-difference oracle: second difference of x^2 is exactly 2
        grid = Grid((16,))
        field = grid.cell_centers(0) ** 2
        lap = laplacian_neumann(field, grid)
        np.testing.assert_array_equal(lap[2:-2], 2.0)

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4, 5])
    def test_conservation_random(self, ndim):
        rng = np.random.default_rng(42 + ndim)
        for _ in range(20):
            grid = random_grid(ndim, rng)
            field = rng.normal(size=grid.shape)
            total = integrate(laplacian_neumann(field, grid), grid)
            assert abs(total) <= 1e-12 * lp_norm(field, grid, 1) * grid.n_cells

    def test_matches_mirrored_ghost_cells_1d(self):
        # zero-flux faces are exactly the mirrored-ghost-cell stencil
        rng = np.random.default_rng(0)
        grid = Grid((12,))
        f = rng.normal(size=12)
        h2 = grid.spacing[0] ** 2
        padded = np.concatenate([[f[0]], f, [f[-1]]])
        oracle = (padded[2:] - 2 * padded[1:-1] + padded[:-2]) / h2
        np.testing.assert_allclose(laplacian_neumann(f, grid), oracle, atol=1e-12)

    @pytest.mark.parametrize("shape,lengths", [((9, 7), (1.0, 2.0)), ((4, 6, 5), (0.5, 1.0, 3.0))])
    def test_matches_mirrored_ghost_cells_nd(self, shape, lengths):
        # every axis, including the last one at the ends of each row
        rng = np.random.default_rng(len(shape))
        grid = Grid(shape, lengths)
        f = rng.normal(size=shape)
        padded = np.pad(f, 1, mode="edge")
        center = tuple(slice(1, -1) for _ in shape)
        oracle = np.zeros(shape)
        for axis, h in enumerate(grid.spacing):
            up = tuple(slice(2, None) if k == axis else s for k, s in enumerate(center))
            down = tuple(slice(None, -2) if k == axis else s for k, s in enumerate(center))
            oracle += (padded[up] - 2 * padded[center] + padded[down]) / h ** 2
        np.testing.assert_allclose(laplacian_neumann(f, grid), oracle, rtol=0,
                                   atol=1e-12 * np.abs(oracle).max())


class TestChemotaxisDivergence:
    def test_constant_v_gives_zero(self):
        rng = np.random.default_rng(1)
        grid = Grid((10,))
        u = rng.uniform(0, 3, 10)
        np.testing.assert_array_equal(
            chemotaxis_divergence(u, grid.new_field(2.0), grid, 1.0), 0.0)

    def test_zero_u_gives_zero(self):
        grid = Grid((10,))
        v = np.sin(3.0 * grid.cell_centers(0))
        np.testing.assert_array_equal(
            chemotaxis_divergence(grid.new_field(0.0), v, grid, 1.0), 0.0)

    def test_analytic_flux_divergence(self):
        # u = 1, alpha = 1: flux = (1/2) grad v, so div = (1/2) lap(cos pi x)
        grid = Grid((128,))
        x = grid.cell_centers(0)
        result = chemotaxis_divergence(np.ones(128), np.cos(np.pi * x), grid, 1.0)
        reference = -(np.pi ** 2 / 2.0) * np.cos(np.pi * x)
        amplitude = np.pi ** 2 / 2.0
        assert np.abs(result - reference).max() <= 0.05 * amplitude

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4, 5])
    def test_conservation_random(self, ndim):
        rng = np.random.default_rng(7 + ndim)
        for _ in range(20):
            grid = random_grid(ndim, rng)
            u = rng.uniform(0, 2, grid.shape)
            v = rng.normal(size=grid.shape)
            total = integrate(chemotaxis_divergence(u, v, grid, 1.3), grid)
            assert abs(total) <= 1e-12 * lp_norm(u, grid, 1) * grid.n_cells + 1e-15

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(4)
        grid = Grid((9, 6))
        u = rng.uniform(0, 2, (9, 6))
        v = rng.normal(size=(9, 6))
        for axis in (0, 1):
            mirrored = chemotaxis_divergence(np.flip(u, axis), np.flip(v, axis), grid, 0.8)
            direct = chemotaxis_divergence(u, v, grid, 0.8)
            np.testing.assert_array_equal(mirrored, np.flip(direct, axis))

    def test_rejects_negative_u(self):
        grid = Grid((8,))
        with pytest.raises(ValueError):
            chemotaxis_divergence(-np.ones(8), np.zeros(8), grid, 1.0)

    def test_rejects_negative_alpha(self):
        grid = Grid((8,))
        with pytest.raises(ValueError, match="alpha"):
            chemotaxis_divergence(np.ones(8), np.zeros(8), grid, -1.0)


def dense_operator(grid, tau):
    n = grid.n_cells
    matrix = np.empty((n, n))
    for j in range(n):
        basis = np.zeros(n)
        basis[j] = 1.0
        column = basis.reshape(grid.shape) - tau * laplacian_neumann(
            basis.reshape(grid.shape), grid)
        matrix[:, j] = column.ravel()
    return matrix


class TestHelmholtzSolve:
    def test_constant_rhs_exact(self):
        grid = Grid((32,))
        solution = helmholtz_solve(grid.new_field(3.0), 0.7, grid)
        np.testing.assert_array_equal(solution, 3.0)
        # stacked constants with per-row tau come back bit for bit too
        for shape in ((33,), (12, 11), (7, 5, 4)):
            grid = Grid(shape)
            rhs = np.stack([grid.new_field(c) for c in (3.0, 0.1, 1.0 / 3.0)])
            tau = np.array([0.7, 0.01, 1e-4]).reshape((3,) + (1,) * len(shape))
            np.testing.assert_array_equal(helmholtz_solve(rhs, tau, grid), rhs)

    def test_zero_rhs(self):
        grid = Grid((8, 8))
        np.testing.assert_array_equal(helmholtz_solve(grid.new_field(0.0), 0.1, grid), 0.0)

    def test_cosine_eigenvector(self):
        # cos(pi x) at cell centers is a discrete Neumann eigenvector; the
        # solve error is bounded by the eigenvalue defect
        grid = Grid((64,))
        tau = 0.2
        x = grid.cell_centers(0)
        mode = np.cos(np.pi * x)
        rhs = (1.0 + tau * np.pi ** 2) * mode
        solution = helmholtz_solve(rhs, tau, grid)
        h = grid.spacing[0]
        discrete_eig = 2.0 / h ** 2 * (1.0 - math.cos(math.pi * h))
        defect = tau * abs(np.pi ** 2 - discrete_eig) / (1.0 + tau * discrete_eig)
        assert np.abs(solution - mode).max() <= 1.05 * defect + 1e-9

    def test_round_trip_residual(self):
        rng = np.random.default_rng(3)
        grid = Grid((12, 11))
        rhs = rng.normal(size=(12, 11))
        tau = 0.05
        solution = helmholtz_solve(rhs, tau, grid)
        residual = solution - tau * laplacian_neumann(solution, grid) - rhs
        assert np.sqrt((residual ** 2).sum()) <= 1e-10 * np.sqrt((rhs ** 2).sum()) * 1.001

    @pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 8, 8), (7, 5, 4), (6, 5, 4, 3),
                                       (4, 3, 3, 3, 3)])
    def test_agrees_with_dense_solve(self, shape):
        rng = np.random.default_rng(len(shape))
        grid = Grid(shape)
        tau = 0.13
        rhs = rng.normal(size=shape)
        dense = np.linalg.solve(dense_operator(grid, tau), rhs.ravel()).reshape(shape)
        assert np.abs(helmholtz_solve(rhs, tau, grid) - dense).max() <= 1e-12
        # stacked right-hand sides with a per-row tau column, on unequal lengths
        grid = Grid(shape, tuple(rng.uniform(0.5, 2.0, len(shape))))
        taus = np.array([0.13, 0.02, 1.7])
        stacked = rng.normal(size=(3,) + shape)
        solution = helmholtz_solve(stacked, taus.reshape((3,) + (1,) * len(shape)), grid)
        for row, tau in enumerate(taus):
            dense = np.linalg.solve(dense_operator(grid, tau), stacked[row].ravel())
            assert np.abs(solution[row] - dense.reshape(shape)).max() <= 1e-12

    def test_preserves_mean(self):
        rng = np.random.default_rng(8)
        grid = Grid((24,))
        rhs = rng.normal(size=24)
        solution = helmholtz_solve(rhs, 0.4, grid)
        assert integrate(solution, grid) == pytest.approx(integrate(rhs, grid), abs=1e-10)

    @pytest.mark.parametrize("tau", [1e-4, 1e-5])
    def test_unit_spike_stays_nonnegative(self, tau):
        # the exact solution decays below 1e-16 far from the spike, where the
        # transform alone leaves roundoff negatives; no entry may be clamped
        grid = Grid((128,))
        rhs = grid.new_field(0.0)
        rhs[0] = 1.0
        solution = helmholtz_solve(rhs, tau, grid)
        assert solution.min() >= 0.0
        dense = np.linalg.solve(dense_operator(grid, tau), rhs)
        assert np.abs(solution - dense).max() <= 1e-15

    @pytest.mark.parametrize("grid", [Grid((128,)), Grid((33,), (6.0,)),
                                      Grid((24, 20), (12.0, 12.0)), Grid((7, 5, 4)),
                                      Grid((40, 32, 24)), Grid((8, 8, 8, 8, 8))])
    def test_member_blocks_solved_as_alone(self, grid):
        # an ensemble member's (3, *shape) block, stacked with others, comes
        # out bit for bit as when solved alone, also when only some of its
        # rows need the positivity repair (the unit spike does)
        shape = grid.shape
        rng = np.random.default_rng(4)
        rhs = rng.uniform(0.5, 1.0, (4, 3) + shape)
        rhs[1, 2] = 0.0
        rhs[1, 2].flat[0] = 1.0
        tau = rng.uniform(0.01, 0.1, (4, 3) + (1,) * len(shape))
        stacked = helmholtz_solve(rhs, tau, grid)
        assert stacked[1, 2].min() >= 0.0
        for member in range(4):
            np.testing.assert_array_equal(stacked[member],
                                          helmholtz_solve(rhs[member], tau[member], grid))

    @pytest.mark.parametrize("shape,products", [
        ((33,), None),
        ((24, 20), [((24, 24), (24, 20)), ((24, 20), (20, 20))]),
        ((40, 32, 24), [((40, 40), (40, 128)), ((32, 32), (32, 24)), ((320, 24), (24, 24))]),
        ((32, 32, 32), [((32, 32), (32, 32))] * 3),
        ((16, 16, 16, 16), [((16, 16), (16, 1024)), ((16, 16), (16, 256)), ((16, 16), (16, 16)),
                            ((1024, 16), (16, 16))]),
        ((8, 8, 8, 8, 8), [((8, 8), (8, 4096)), ((8, 8), (8, 512)), ((8, 8), (8, 64)),
                           ((8, 8), (8, 8)), ((4096, 8), (8, 8))]),
        ((6, 5, 4, 3), [((6, 6), (6, 60)), ((5, 5), (5, 12)), ((4, 4), (4, 3)),
                        ((120, 3), (3, 3))]),
        ((128, 128), [((128, 128), (128, 128))] * 2),
        ((64, 257), [((64, 64), (64, 257)), ((64, 257), (257, 257))]),
    ], ids=["1d", "2d", "3d", "3d-32", "4d", "5d", "4d-small", "128x128", "64x257"])
    def test_products_sized_by_their_work(self, monkeypatch, shape, products):
        # every matrix product of the solve takes at most 2^18 multiply-adds
        # (OpenBLAS stays on the calling thread), or the n x n_last blocks'
        # where those already pass it: blocks only widen, also where the
        # column count has no divisor in the budget (257 is prime).  A lone
        # field, a state and an ensemble of 4 states are multiplied in the
        # same blocks, one field's or, in 1D, one (3, n) state's
        grid, calls = Grid(shape), []
        matmul = np.matmul

        def recording(a, b, **out):
            calls.append((a.shape, b.shape))
            return matmul(a, b, **out)

        monkeypatch.setattr(np, "matmul", recording)
        rng = np.random.default_rng(11)
        seen = {}
        for stack in ((), (3,), (4, 3)):
            calls.clear()
            helmholtz_solve(rng.uniform(0.5, 1.0, stack + shape), 0.01, grid)
            assert len(calls) == 2 * grid.ndim
            seen[stack] = [(a[-2:], b[-2:]) for a, b in calls]
            fields = math.prod(stack)
            for i, (a, b) in enumerate(calls):
                count = math.prod(a[:-2]) if len(a) > 2 else math.prod(b[:-2])
                assert count * a[-2] * b[-1] == fields * grid.n_cells
                axis = i % grid.ndim
                last = axis == grid.ndim - 1 and grid.ndim > 1
                former = shape[axis] ** 2 * shape[-2 if last else -1]  # n x n_last blocks'
                assert a[-2] * a[-1] * b[-1] <= max(2 ** 18, former)
        if products is None:  # 1D: one product per state, a lone field's of one row
            n = shape[0]
            assert seen[()] == [((1, n), (n, n))] * 2
            assert seen[(3,)] == seen[(4, 3)] == [((3, n), (n, n))] * 2
        else:
            # the forward products, then the inverse ones in the same blocks
            assert seen[()] == seen[(3,)] == seen[(4, 3)] == products * 2

    def test_constant_field_stacked_with_random_ones_exact(self):
        # each field is shifted by its own mean: a constant u stacked with
        # random v and w still comes back bit for bit
        grid = Grid((7, 5, 4))
        rhs = np.random.default_rng(5).normal(size=(3,) + grid.shape)
        rhs[0] = 1.0 / 3.0
        tau = np.array([0.7, 0.01, 0.2]).reshape(3, 1, 1, 1)
        np.testing.assert_array_equal(helmholtz_solve(rhs, tau, grid)[0], rhs[0])

    def test_no_finite_difference_laplacian(self, monkeypatch):
        # the correction is a diagonal scaling in the eigenbasis; the spike
        # row also takes the positivity repair
        def forbidden(values, grid):
            raise AssertionError("helmholtz_solve took a finite-difference Laplacian")

        monkeypatch.setattr(discretization, "laplacian_neumann", forbidden)
        monkeypatch.setattr(discretization, "_face_differences", forbidden)
        grid = Grid((128,))
        rhs = np.random.default_rng(6).uniform(0.5, 1.0, (3,) + grid.shape)
        rhs[2] = 0.0
        rhs[2, 0] = 1.0
        solution = helmholtz_solve(rhs, np.array([0.1, 0.01, 1e-4]).reshape(3, 1), grid)
        assert solution.min() >= 0.0

    def test_memory_holds_two_arrays_of_rhs_size(self):
        grid = Grid((40, 32, 24))
        rhs = np.random.default_rng(7).uniform(0.5, 1.0, (3,) + grid.shape)
        tau = np.array([0.01, 0.02, 0.03]).reshape(3, 1, 1, 1)
        helmholtz_solve(rhs, tau, grid)  # fill the per-grid caches
        tracemalloc.start()
        try:
            helmholtz_solve(rhs, tau, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * rhs.nbytes

    def test_repair_memory_holds_the_flagged_field_only(self, monkeypatch):
        # the positivity repair builds its candidate for the flagged spike
        # field alone, in place, not for the whole stack
        grid = Grid((40, 32, 24))
        rhs = np.random.default_rng(8).uniform(0.5, 1.0, (3,) + grid.shape)
        rhs[2] = 0.0
        rhs[2].flat[0] = 1.0
        tau = np.array([0.01, 0.02, 1e-5]).reshape(3, 1, 1, 1)
        helmholtz_solve(rhs, tau, grid)  # fill the per-grid caches
        repaired = []
        neighbour_sum = discretization._neighbour_sum
        monkeypatch.setattr(discretization, "_neighbour_sum",
                            lambda values, grid_: repaired.append(values.shape)
                            or neighbour_sum(values, grid_))
        tracemalloc.start()
        try:
            solution = helmholtz_solve(rhs, tau, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repaired and solution.min() >= 0.0
        assert peak <= 2.5 * rhs.nbytes

    @pytest.mark.parametrize("shape,members", [
        ((33,), 1), ((9, 7), 1), ((6, 5, 4), 1), ((7, 6, 5), 4), ((40, 32, 24), 2),
    ], ids=["1d", "2d", "3d", "3d-stacked", "3d-large"])
    def test_scratch_gives_the_same_solution(self, shape, members):
        # the transform's result lands in the scratch after an odd number of
        # axes, in x after an even one; either way x is returned, bit for bit
        grid = Grid(shape)
        rng = np.random.default_rng(12)
        rhs = rng.uniform(0.5, 1.0, (members, 3) + shape)
        tau = rng.uniform(1e-3, 0.1, (members, 3) + (1,) * len(shape))
        scratch = np.full(rhs.shape, np.nan)
        solution = helmholtz_solve(rhs, tau, grid, scratch=scratch)
        np.testing.assert_array_equal(solution, helmholtz_solve(rhs, tau, grid))
        assert not np.shares_memory(solution, scratch)

    def test_scratch_gives_the_same_repair(self, monkeypatch):
        grid = Grid((128,))
        rhs = np.random.default_rng(6).uniform(0.5, 1.0, (2, 3) + grid.shape)
        rhs[1, 2] = 0.0
        rhs[1, 2, 0] = 1.0
        tau = np.array([0.1, 0.01, 1e-4]).reshape(3, 1)
        repaired = []
        neighbour_sum = discretization._neighbour_sum
        monkeypatch.setattr(discretization, "_neighbour_sum",
                            lambda values, grid_: repaired.append(values.shape)
                            or neighbour_sum(values, grid_))
        solution = helmholtz_solve(rhs, tau, grid, scratch=np.empty(rhs.shape))
        assert repaired and solution.min() >= 0.0
        np.testing.assert_array_equal(solution, helmholtz_solve(rhs, tau, grid))

    def test_memory_with_scratch_holds_the_solution_alone(self):
        grid = Grid((40, 32, 24))
        rhs = np.random.default_rng(7).uniform(0.5, 1.0, (1, 3) + grid.shape)
        tau = np.array([0.01, 0.02, 0.03]).reshape(1, 3, 1, 1, 1)
        scratch = np.empty(rhs.shape)
        helmholtz_solve(rhs, tau, grid, scratch=scratch)  # fill the per-grid caches
        tracemalloc.start()
        try:
            helmholtz_solve(rhs, tau, grid, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * rhs.nbytes

    @pytest.mark.parametrize("shape", [(33,), (9, 7), (40, 32, 24)])
    def test_scalar_tau_gives_the_per_field_bits(self, shape):
        # a scalar tau's grid-shaped tau*lam, in the start of the scratch,
        # gives the bits of the same tau per field, a spike's repair included
        grid, tau = Grid(shape), 1e-5
        rhs = np.random.default_rng(13).uniform(0.5, 1.0, (2, 3) + shape)
        rhs[1, 2] = 0.0
        rhs[1, 2].flat[0] = 1.0
        solution = helmholtz_solve(rhs, tau, grid, scratch=np.empty(rhs.shape))
        assert solution.min() >= 0.0
        np.testing.assert_array_equal(
            solution, helmholtz_solve(rhs, np.full((2, 3) + (1,) * len(shape), tau), grid))

    @pytest.mark.parametrize("make_scratch", [
        lambda rhs: np.empty(rhs.shape[1:]),
        lambda rhs: rhs,
        lambda rhs: np.empty(rhs.shape[::-1]).T,
    ], ids=["shape", "aliases-rhs", "not-contiguous"])
    def test_rejects_unusable_scratch(self, make_scratch):
        grid = Grid((8, 6))
        rhs = np.ones((3, 8, 6))
        with pytest.raises(ValueError, match="scratch"):
            helmholtz_solve(rhs, 0.1, grid, scratch=make_scratch(rhs))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            helmholtz_solve(np.ones(8), 0.0, Grid((8,)))
        with pytest.raises(ValueError):
            helmholtz_solve(np.ones((3, 8)), np.array([[0.1], [0.0], [0.1]]), Grid((8,)))

    def test_rejects_wrong_trailing_shape(self):
        with pytest.raises(ValueError):
            helmholtz_solve(np.ones((3, 8)), 0.1, Grid((9,)))
