"""Reference evaluations of the record columns, written with plain numpy.

The midpoint-rule integral, the quasi-energy and the gradient quadrature
as the paper states them, for one state's fields, with no chemovir
helper.  Each sum runs over a field's cells in the order
``monitors.compute_record`` takes it, and the terms combine in its order,
so that its records equal these values bit for bit.
"""

import numpy as np


def integrate(values, grid):
    """int(f) by the midpoint rule: the cell volume times the sum of the
    flat array."""
    return float(grid.cell_volume * np.asarray(values, dtype=float).reshape(-1).sum())


def grad_norm_sq(values, grid):
    """int(|grad f|^2) from face-centered differences: every face weighs one
    cell volume, and the faces next to the boundary one and a half."""
    total = 0.0
    for axis, h in enumerate(grid.spacing):
        sq = (np.diff(values, axis=axis) / h) ** 2
        boundary = np.take(sq, 0, axis).sum() + np.take(sq, -1, axis).sum()
        total += grid.cell_volume * (sq.sum() + 0.5 * boundary)
    return float(total)


def quasi_energy(state, p, grid):
    """F = (1/p) int(u^p) + ((p+3)/4) int(v^2) + int(|grad w|^2), by the
    midpoint rule."""
    p = float(p)
    integral_up = grid.cell_volume * (state.u ** p).sum()
    integral_vv = grid.cell_volume * (state.v * state.v).sum()
    return float(integral_up / p + (p + 3.0) / 4.0 * integral_vv + grad_norm_sq(state.w, grid))
