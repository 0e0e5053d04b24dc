"""Spatial operators on the cell-centered grid.

All operators implement the homogeneous Neumann condition through the
zero-flux convention: every boundary face carries exactly zero flux, which
is equivalent to mirrored ghost cells but makes discrete conservation
exact (fluxes telescope), not merely approximate.

The chemotaxis term is discretised conservatively with first-order
donor-cell upwinding of the sensitivity phi(u) = u/(1+u)^alpha on faces
and central face differences of v.  Upwinding sacrifices an order of
accuracy in exchange for sign-correctness: the explicit advective update
cannot push a nonnegative u below zero as long as the step size respects
the advective CFL bound.

The implicit Helmholtz solve (I - tau lap) x = b is exact: the DCT-II
diagonalises the zero-flux Laplacian on this grid (Strang, "The Discrete
Cosine Transform", SIAM Review 41, 1999), so b - x is b minus its mean,
transformed (one matrix product per axis), scaled per mode and transformed back.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid, check_field


@functools.cache
def _face_slices(ndim: int, axis: int) -> tuple[tuple, tuple]:
    # slice tuples selecting the lower/upper neighbours of the interior faces
    # along one grid axis; counted from the last array axis, so they also
    # apply to the stacked (3, *shape) state array and to an ensemble's
    # (E, 3, *shape) array
    trailing = (slice(None),) * (ndim - 1 - axis)
    return (Ellipsis, slice(None, -1)) + trailing, (Ellipsis, slice(1, None)) + trailing


def laplacian_neumann(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2*ndim+1 point Laplacian with zero-flux boundary faces.

    Assembled as the divergence of interior face differences, so the
    integral of the output telescopes to zero up to roundoff.
    """
    values = check_field(values, grid)
    out = np.zeros(values.shape)
    for axis, (flux, h) in enumerate(zip(_face_differences(values, grid), grid.spacing)):
        lo, hi = _face_slices(grid.ndim, axis)
        flux /= h * h
        out[lo] += flux
        out[hi] -= flux
    return out


def _face_differences(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Unchecked differences across the interior faces, one array per axis."""
    ndim = grid.ndim
    differences = []
    for axis in range(ndim):
        lo, hi = _face_slices(ndim, axis)
        differences.append(values[hi] - values[lo])
    return differences


def _sensitivity(u: np.ndarray, runs, out: np.ndarray | None = None) -> np.ndarray:
    """phi(u) = u/(1+u)^alpha, in ``out`` or a new array.  ``runs`` holds
    (alpha, members) pairs, ``members`` slicing u's first axis; a lone run's
    index is not read.  Each run's block of 1 + u is raised to its scalar
    alpha in place.
    """
    phi = np.add(u, 1.0, out=out)
    if len(runs) == 1:
        phi **= runs[0][0]
    else:
        for alpha, members in runs:
            block = phi[members]
            block **= alpha
    return np.divide(u, phi, out=out)


def chemotaxis_divergence(u: np.ndarray, v: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """Conservative divergence of the chemotactic flux phi(u) * grad(v).

    The face flux takes phi from the donor cell (the cell the flux leaves,
    determined by the sign of the face gradient of v).  Returns div(phi(u)
    grad v); the PDE right-hand side contribution is minus this value.
    The stepper fuses the same flux on the stacked fields and is tested
    against this reference.
    """
    u = check_field(u, grid, "u")
    v = check_field(v, grid, "v")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if np.any(u < 0):
        raise ValueError("chemotaxis_divergence requires u >= 0")
    differences = _face_differences(v, grid)
    if not any(d.any() for d in differences):
        return np.zeros_like(u)
    ndim, out = grid.ndim, np.zeros(u.shape)
    phi = _sensitivity(u, ((alpha, Ellipsis),))
    for axis, (d, h) in enumerate(zip(differences, grid.spacing)):
        lo, hi = _face_slices(ndim, axis)
        g = d / h
        flux = np.where(g > 0, phi[lo], phi[hi]) * g
        flux /= h
        # each axis in a zero buffer, summed in axis order, so that
        # mirroring an axis mirrors the output bitwise (no reassociation)
        part = out if ndim == 1 else np.zeros(u.shape)
        part[lo] += flux
        part[hi] -= flux
        if part is not out:
            out += part
    return out


def _aligned(shape: tuple) -> np.ndarray:
    """An uninitialised C-contiguous float array that starts on a 64-byte boundary."""
    size = math.prod(shape)
    buffer = np.empty(size + 7)
    start = -buffer.ctypes.data % 64 // 8
    return buffer[start:start + size].reshape(shape)


@functools.cache
def _dct_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal n x n DCT-II matrix C and its transpose, the inverse,
    each C-contiguous from a 64-byte boundary: 16 n^2 bytes, cached per axis
    length.  OpenBLAS multiplied 16 members' (3, 128) blocks by C^T in 20 us
    when it was so aligned and in 28 us when it started 16 bytes past a
    boundary, with the same bits.
    """
    matrix = _aligned((n, n))
    np.cos(np.pi * np.arange(n)[:, None] * (np.arange(n) + 0.5) / n, out=matrix)
    matrix *= math.sqrt(2.0 / n)
    matrix[0] = math.sqrt(1.0 / n)
    transpose = _aligned((n, n))
    transpose[...] = matrix.T
    return matrix, transpose


@functools.cache
def _eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap on the DCT-II basis, sum_k (2 - 2 cos(pi j_k/n_k))/h_k^2."""
    per_axis = ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / (h * h)
                for n, h in zip(grid.shape, grid.spacing))
    return sum(np.ix_(*per_axis), 0.0)


# multiply-adds in one product of _transform.  On a 2-core x86-64 machine
# OpenBLAS ran a product of 819,200 on the calling thread (CPU/wall 1.00) and
# woke its helper threads for one of 1,105,920 (CPU/wall 1.55-1.84)
_PRODUCT_BUDGET = 2 ** 18


@functools.cache
def _blocks(grid: Grid) -> tuple:
    """Per axis of a grid of two or more, the shape _transform gives an
    array so that each matrix product is one block: (-1, n, m // w, w)
    before the last axis (n cells, stride m), whose swapped view holds
    n x w blocks, and (-1, w, n), w rows, on the last axis.

    w starts at n_last columns (n_second-to-last rows on the last axis).
    Where n or that width is under 32, w widens to the largest divisor of a
    field's m columns (N/n rows on the last axis, N its cells) with
    n*n*w <= _PRODUCT_BUDGET; w never narrows, so an axis whose products
    are already past the budget keeps them.  w depends on the grid alone,
    and no block crosses a field.  Where both are 32 or more the blocks
    stay: 32^3's last axis took 69 us in 32 rows and 76 us in 256, and its
    bits moved, while 40x32x24's took 80 us in 32 rows and 61 us in 320,
    bit for bit.
    """
    blocks = []
    for axis, n in enumerate(grid.shape):
        last = axis == grid.ndim - 1
        count = grid.n_cells // n if last else math.prod(grid.shape[axis + 1:])
        width = grid.shape[-2 if last else -1]
        if min(n, width) < 32:
            limit = min(count, _PRODUCT_BUDGET // (n * n))
            width = max((w for w in range(width, limit + 1) if count % w == 0), default=width)
        blocks.append((-1, width, n) if last else (-1, n, count // width, width))
    return tuple(blocks)


def _transform(values: np.ndarray, grid: Grid, spare: np.ndarray,
               inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The DCT (or its inverse) along every grid axis, ping-ponging between
    ``values`` and ``spare``, an array of its shape: returns the buffer that
    holds the result and the other one.  Both are overwritten; the result
    is in ``values`` after an even number of axes and in ``spare`` after an
    odd one.

    Leading (stacked) axes ride along as a batch.  Along an axis each row x
    becomes x @ B, B = C^T forward and C inverse (C the DCT-II matrix), in
    the blocks of _blocks: B^T into blocks of columns, or blocks of rows
    into B on the last axis.  A small axis's blocks widen so that OpenBLAS
    does not run far below its speed, up to _PRODUCT_BUDGET multiply-adds,
    below the size at which it wakes its helper threads, whose spinning
    costs more CPU time than they save in wall time.  B is read from a
    C-contiguous array, B^T as its transposed view: the last axis of
    40x32x24 took 35 us so and 61 us with C^T a view of C.  Neither the
    blocks nor a field's bits depend on what the field is stacked with.
    A 1D grid keeps one product per member, its (3, n) fields (a lone
    field is one row), and C^T as a view of C: OpenBLAS rounds a 48 x 32
    or 12 x 128 product, or a (3, n) block against the contiguous C^T,
    differently.
    """
    if grid.ndim == 1:  # one product per (3, n) member; a lone field is one row
        matrix = _dct_matrices(grid.shape[0])[0]
        lone = values.ndim == 1
        np.matmul(values.reshape(1, -1) if lone else values, matrix if inverse else matrix.T,
                  out=spare.reshape(1, -1) if lone else spare)
        return spare, values
    blocks = _blocks(grid)
    for axis, n in enumerate(grid.shape):
        matrix, transpose = _dct_matrices(n)
        right = matrix if inverse else transpose
        if axis < grid.ndim - 1:
            np.matmul(right.T, values.reshape(blocks[axis]).swapaxes(1, 2),
                      out=spare.reshape(blocks[axis]).swapaxes(1, 2))
        else:
            np.matmul(values.reshape(blocks[axis]), right, out=spare.reshape(blocks[axis]))
        values, spare = spare, values
    return values, spare


def _neighbour_sum(values: np.ndarray, grid: Grid) -> np.ndarray:
    """N(x): the sum over each cell's faces of the neighbour's value over h^2.

    lap x = N(x) - N(1) x; every term of N(x) is nonnegative when x is.
    """
    ndim = grid.ndim
    out = np.zeros(values.shape)
    for axis, h in enumerate(grid.spacing):
        lo, hi = _face_slices(ndim, axis)
        out[lo] += values[hi] / (h * h)
        out[hi] += values[lo] / (h * h)
    return out


@functools.cache
def _neighbour_weights(grid: Grid) -> np.ndarray:
    """N(1), read-only and cached per grid."""
    weights = _neighbour_sum(np.ones(grid.shape), grid)
    weights.flags.writeable = False
    return weights


def helmholtz_solve(rhs: np.ndarray, tau, grid: Grid, *,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - tau * lap) x = rhs exactly in the DCT-II eigenbasis.

    No tolerance, no iteration.  ``rhs`` has shape ``(..., *grid.shape)``
    and ``tau`` broadcasts to it, so stacked fields with per-field tau are
    solved in one call.  With m each stacked field's mean, lam the
    eigenvalues of -lap and T the transform, x = rhs - T^-1[tau lam/(1 +
    tau lam) T(rhs - m)]; a constant field shifts to zeros and comes back
    bit for bit.  (I - tau lap)^-1 is entrywise positive: a negative entry
    from rhs >= 0 is transform roundoff, below about 1e-16 max|rhs|, and one
    Jacobi sweep x <- (rhs + tau N(max(x, 0))) / (1 + tau N(1)) removes it
    without clamping or growing the max-norm error.  Each stacked field is
    solved and repaired on its own, independent of what it is stacked with.
    Non-finite input gives a non-finite result.

    x is the one array the solve returns; the transform's spare buffer is
    ``scratch`` when given (a C-contiguous float array of rhs's shape apart
    from rhs, which the solve overwrites), else a new array.  Either way at
    most two arrays of rhs's size are alive, and the result is the same bit
    for bit.  Between the transforms the spare buffer holds tau*lam and then
    1 + tau*lam, for a scalar tau (the stepper passes one when every
    field's is one value) only in its first N entries, grid-shaped: 2N
    operations, not 2 per value of rhs.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[rhs.ndim - grid.ndim:] != grid.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not end in grid {grid.shape}")
    tau = np.asarray(tau, dtype=float)
    if not (tau > 0).all():
        raise ValueError(f"tau must be > 0, got {tau}")
    if scratch is not None and (scratch.shape != rhs.shape or not scratch.flags.c_contiguous
                                or np.may_share_memory(scratch, rhs)):
        raise ValueError(f"scratch must be a C-contiguous array of shape {rhs.shape} "
                         "apart from rhs")
    x = rhs - rhs.mean(axis=tuple(range(-grid.ndim, 0)), keepdims=True)
    x, spare = _transform(x, grid, np.empty(rhs.shape) if scratch is None else scratch)
    scale = spare if tau.ndim else spare.reshape(-1)[:grid.n_cells].reshape(grid.shape)
    np.multiply(tau, _eigenvalues(grid), out=scale)
    x *= scale
    x /= np.add(scale, 1.0, out=scale)
    # 2 * ndim transforms in all: the result is back in the array rhs - m made
    x = _transform(x, grid, spare, inverse=True)[0]
    del spare, scale  # a new spare is freed before the repair
    np.subtract(rhs, x, out=x)
    if float(x.min()) < 0.0:
        cells = (-1, grid.n_cells)
        repair = (x.reshape(cells).min(axis=1) < 0.0) & (rhs.reshape(cells).min(axis=1) >= 0.0)
        taus = np.broadcast_to(tau, np.broadcast_shapes(tau.shape, rhs.shape))
        for index, flagged in zip(np.ndindex(rhs.shape[:rhs.ndim - grid.ndim]), repair):
            if flagged:  # repaired alone and written back in place
                field_tau, positive = taus[index], np.maximum(x[index], 0.0)
                x[index] = (rhs[index] + field_tau * _neighbour_sum(positive, grid)) / (
                    1.0 + field_tau * _neighbour_weights(grid))
    return x
