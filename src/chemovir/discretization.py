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


@functools.cache
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal n x n DCT-II matrix, 8 n^2 bytes, cached per axis length."""
    matrix = np.cos(np.pi * np.arange(n)[:, None] * (np.arange(n) + 0.5) / n)
    matrix *= math.sqrt(2.0 / n)
    matrix[0] = math.sqrt(1.0 / n)
    return matrix


@functools.cache
def _eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap on the DCT-II basis, sum_k (2 - 2 cos(pi j_k/n_k))/h_k^2."""
    per_axis = ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / (h * h)
                for n, h in zip(grid.shape, grid.spacing))
    return sum(np.ix_(*per_axis), 0.0)


def _transform(values: np.ndarray, grid: Grid, spare: np.ndarray,
               inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The DCT (or its inverse) along every grid axis, ping-ponging between
    ``values`` and ``spare``, an array of its shape: returns the buffer that
    holds the result and the other one.  Both are overwritten; the result
    is in ``values`` after an even number of axes and in ``spare`` after an
    odd one.

    Leading (stacked) axes ride along as a batch.  Each axis multiplies its
    n x n matrix into blocks of n_last columns: up to about 64 cells per
    axis such products run on the calling thread, whereas one product over
    the whole array wakes OpenBLAS's helper threads, whose spinning costs
    more CPU time than they save in wall time.  The blocks of the last axis
    are the array's last two axes, so in 1D a member of an ensemble is
    transformed as one (3, n) block like a single state: OpenBLAS rounds a
    product of more rows differently.
    """
    shape, last = values.shape, grid.shape[-1]
    for axis, n in enumerate(grid.shape):
        matrix = _dct_matrix(n).T if inverse else _dct_matrix(n)
        if axis == grid.ndim - 1:
            rows = (-1,) + shape[-2:] if len(shape) > 1 else (1, last)
            np.matmul(values.reshape(rows), matrix.T, out=spare.reshape(rows))
        else:
            blocks = (-1, n, math.prod(grid.shape[axis + 1:-1]), last)
            np.matmul(matrix, values.reshape(blocks).swapaxes(1, 2),
                      out=spare.reshape(blocks).swapaxes(1, 2))
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

    x is the one array the solve returns; the transform's spare buffer, which
    also holds the scale tau*lam between the transforms, is ``scratch`` when
    given (a C-contiguous float array of rhs's shape apart from rhs, which
    the solve overwrites), else a new array.  Either way at most two
    arrays of rhs's size are alive, and the result is the same bit for bit.
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
    scale = np.multiply(tau, _eigenvalues(grid), out=spare)
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
