"""Cell-centered uniform Cartesian meshes, fields, quadrature and norms.

A field is a plain ``numpy`` array with one value per cell, C-ordered
(row-major) over ``grid.shape``.  The domain is a rectangular box; the
boundary condition everywhere is homogeneous Neumann, realised by the
zero-flux convention of the operators in :mod:`chemovir.discretization`.

Each sum runs over one field's contiguous row of cells, summed by numpy on
its own, so a member's sums do not depend on its ensemble, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = "CVF2"
# the most axes that pass Grid's cell-count bound, at 3 cells an axis:
# 24 * 3**36 <= 2**63 - 1 < 24 * 3**37
_MAX_AXES = 36
_QUOTED_LENGTH = 32  # the most characters of a text that an error quotes


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh in any number of dimensions.

    ``shape`` gives cells per axis (each >= 3); ``lengths`` the domain
    extent per axis (default 1.0 each).  The cell-count bound alone limits
    ndim: at most 36 axes, and (E, 3, *shape) stays within numpy's 64.
    """

    shape: tuple[int, ...]
    lengths: tuple[float, ...] = ()

    def __post_init__(self):
        shape = self.shape if isinstance(self.shape, (tuple, list)) else (self.shape,)
        require(all(isinstance(s, (int, np.integer)) or isinstance(s, float) and s.is_integer()
                    for s in shape), "cells", "a whole number of cells per axis", shape)
        shape = tuple(int(s) for s in shape)
        require(len(shape) >= 1, "ndim", "ndim >= 1", shape)
        require(all(s >= 3 for s in shape), "cells", "every axis >= 3 cells", shape)
        # checked before the product, whose cost grows quadratically with the axes
        require(len(shape) <= _MAX_AXES, "cells", f"at most {_MAX_AXES} axes of >= 3 cells",
                f"{len(shape)} axes")
        # the (3, *shape) float64 state array must fit numpy's largest array
        require(24 * math.prod(shape) <= np.iinfo(np.intp).max, "cells",
                f"at most {np.iinfo(np.intp).max // 24} cells in all", shape)
        lengths = self.lengths if self.lengths else (1.0,) * len(shape)
        lengths = tuple(float(L) for L in lengths)
        require(len(lengths) == len(shape), "lengths", f"one entry per axis of {shape}", lengths)
        require(all(L > 0 for L in lengths), "lengths", "every length > 0", lengths)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        # geometry is immutable: the derived quantities are plain attributes,
        # read on every step without a property call
        spacing = tuple(L / s for L, s in zip(lengths, shape))
        for name, value in (("ndim", len(shape)), ("spacing", spacing),
                            ("cell_volume", math.prod(spacing)), ("n_cells", math.prod(shape)),
                            ("volume", math.prod(lengths))):
            object.__setattr__(self, name, value)

    def cell_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return (np.arange(self.shape[axis]) + 0.5) * h

    def new_field(self, fill: float = 0.0) -> np.ndarray:
        return np.full(self.shape, float(fill))


def require(ok: bool, name: str, requirement: str, value) -> None:
    """Raise a ValueError about the setting ``name`` unless ``ok`` holds.

    A float in ``value``, a number or a tuple of them, fails too when it is
    inf or nan.  The message starts with ``name``, which the configuration
    parser maps back to the line of the key of that name.
    """
    numbers = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(x) for x in numbers if isinstance(x, float)):
        raise ValueError(f"{name} must be finite, got {_shown(value)}")
    if not ok:
        raise ValueError(f"{name} must satisfy {requirement}, got {_shown(value)}")


def _shown(value) -> str:
    """A value as errors print it, a long int by its digit count, a long text
    by _quoted, and a tuple by the entries that fit in _QUOTED_LENGTH
    characters (at least one), with its length named when some are left out."""
    if isinstance(value, str) and len(value) > _QUOTED_LENGTH:
        return _quoted(value)
    if isinstance(value, tuple):
        entries, length = [], 0
        for entry in map(_shown, value):
            length += len(entry) + 2
            if entries and length > _QUOTED_LENGTH:
                return f"({', '.join(entries)}, ... ({len(value)} entries))"
            entries.append(entry)
        return f"({', '.join(entries)}{',' * (len(value) == 1)})"
    if isinstance(value, int) and abs(value) >= 10 ** 30:
        n = abs(value)  # its digits counted without str(), which refuses over 4300
        digits = next(k for k in itertools.count(n.bit_length() * 30102 // 100000) if 10 ** k > n)
        return f"a {'negative ' * (value < 0)}{digits}-digit integer"
    return str(value)


def _quoted(text: str) -> str:
    """A text, such as a config file's, as errors quote it: its repr, cut
    after _QUOTED_LENGTH characters with its length named."""
    cut = len(text) > _QUOTED_LENGTH
    return f"{text[:_QUOTED_LENGTH]!r}{f'... ({len(text)} characters)' * cut}"


def check_field(values: np.ndarray, grid: Grid, name: str = "field") -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"{name} shape {values.shape} does not match grid {grid.shape}")
    return values


class State:
    """Solution triple (u, v, w) on a common grid at time t.

    The three fields are held in one read-only ``(3, *shape)`` array,
    ``fields``, of which ``u``, ``v`` and ``w`` are row views.  Because a
    state's values cannot change, the stepper memoises its extrema in
    ``memo``, beside the run's plan, which every step hands on to the state
    it makes and which records whose face differences its workspace holds.
    The stepper holds an ensemble this way too: ``fields`` of shape
    ``(E, 3, *shape)`` and ``t`` a list (or array) of the members' times;
    its ``u``, ``v`` and ``w`` stack the members' fields.
    """

    __slots__ = ("fields", "t", "memo")

    def __init__(self, u, v, w, t: float = 0.0):
        fields = np.stack([np.asarray(f, dtype=float) for f in (u, v, w)])
        fields.setflags(write=False)
        self.fields, self.t, self.memo = fields, t, {}

    @classmethod
    def from_fields(cls, fields: np.ndarray, t: float = 0.0) -> "State":
        """Wrap a ``(3, *shape)`` float array without copying; it becomes read-only."""
        state = cls.__new__(cls)
        fields.setflags(write=False)
        state.fields, state.t, state.memo = fields, t, {}
        return state

    @property
    def u(self) -> np.ndarray:
        return self._component(0)

    @property
    def v(self) -> np.ndarray:
        return self._component(1)

    @property
    def w(self) -> np.ndarray:
        return self._component(2)

    def _component(self, k: int) -> np.ndarray:
        # an ensemble's times are a list or array, and its members come first
        return self.fields[:, k] if isinstance(self.t, (list, np.ndarray)) else self.fields[k]

    def __repr__(self) -> str:
        return f"State(t={self.t!r}, shape={self.fields.shape[1:]})"

    def validate(self, grid: Grid):
        """Raise ValueError for a NaN or inf t, for fields off the grid's shape,
        then, u, v and w in turn, for a NaN or inf extremum, then for a minimum
        below 0."""
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        check_field(self.u, grid, "u")  # the fields are stacked: v and w share u's shape
        cells = _trailing_axes(self.fields.ndim, grid.ndim)
        low = np.minimum.reduce(self.fields, cells).tolist()
        high = np.maximum.reduce(self.fields, cells).tolist()
        for name, lo, hi in zip("uvw", low, high):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} contains non-finite values")
            if lo < 0:
                raise ValueError(f"{name} contains negative values")


def lp_norm(values: np.ndarray, grid: Grid, p) -> float:
    """Discrete L^p norm; p = inf gives the max of |values|."""
    values = check_field(values, grid)
    if p == math.inf:
        return float(_sup_norms(values, grid))
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return _lp_norm_from_sum(_cell_sums(np.abs(values) ** p, grid.ndim), grid, p)


# The quadratures behind lp_norm and the records.  They reduce
# the trailing grid axes of an array with any leading axes, such as an
# ensemble's (E, 3, *shape), to one value per leading index.  Each sum runs
# over a contiguous row of cells, so a member's value equals that of its
# field alone bit for bit.

def _member_runs(keys):
    """Yield ``(key, members)`` for each run of equal consecutive per-member keys.

    Members that share a parameter, such as alpha or the energy exponent,
    are evaluated together with its scalar value, so that each member's
    result equals its single-state evaluation bit for bit: numpy takes
    other paths for ``x ** 2.0`` and ``x ** 0.5`` than for an array of
    exponents.  ``members`` slices the leading member axis.
    """
    start = 0
    for key, group in itertools.groupby(keys):
        stop = start + sum(1 for _ in group)
        yield key, slice(start, stop)
        start = stop


def _cell_sums(values: np.ndarray, ndim: int) -> np.ndarray:
    """Sums over the trailing ndim axes."""
    return values.reshape(values.shape[:values.ndim - ndim] + (-1,)).sum(-1)


def _integrals(values: np.ndarray, grid: Grid) -> np.ndarray:
    return grid.cell_volume * _cell_sums(values, grid.ndim)


def _sup_norms(values: np.ndarray, grid: Grid) -> np.ndarray:
    # max |values| from the max and the min, with no |values| array; the abs
    # of both turns an extremum of -0.0 into 0.0, and NaN propagates
    cells = _trailing_axes(values.ndim, grid.ndim)
    return np.maximum(np.abs(np.maximum.reduce(values, axis=cells)),
                      np.abs(np.minimum.reduce(values, axis=cells)))


def _extrema(state: State) -> tuple[list, list]:
    """Each member's minima and maxima of u, v and w of an ensemble state, as
    nested lists; memoised."""
    cached = state.memo.get("extrema")
    if cached is None:
        fields, cells = state.fields, _trailing_axes(state.fields.ndim, state.fields.ndim - 2)
        cached = state.memo["extrema"] = (np.minimum.reduce(fields, cells).tolist(),
                                          np.maximum.reduce(fields, cells).tolist())
    return cached


@functools.cache
def _trailing_axes(ndim: int, count: int) -> tuple[int, ...]:
    # the last count of ndim axes: a min or max over them needs no reshape
    return tuple(range(ndim - count, ndim))


def _lp_norm_from_sum(total, grid: Grid, p: float) -> float:
    """The L^p norm from the cell sum of |values|^p."""
    return float(total * grid.cell_volume) ** (1.0 / p)


def _grad_norms_sq(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature of the squared gradient from face-centered differences.

    Each interior face contributes (difference/spacing)^2 times the cell
    volume; faces adjacent to the boundary take a 1.5x weight so that the
    gradient value there also covers the boundary half-cell.  This makes
    the quadrature exact for linear fields and leaves constants at zero
    exactly.
    """
    ndim = grid.ndim
    scratch, total = np.empty(values.size), 0.0
    for axis, h in zip(range(values.ndim - ndim, values.ndim), grid.spacing):
        inner = (slice(None),) * axis
        above, below = values[inner + (slice(1, None),)], values[inner + (slice(None, -1),)]
        # (difference/h)^2, in place in a view of the one scratch buffer
        sq = np.subtract(above, below, out=scratch[:above.size].reshape(above.shape))
        sq /= h
        sq *= sq
        boundary = (_cell_sums(np.take(sq, 0, axis), ndim - 1)
                    + _cell_sums(np.take(sq, -1, axis), ndim - 1))
        total += grid.cell_volume * (_cell_sums(sq, ndim) + 0.5 * boundary)
    return total


def atomic_write(path, data):
    """Write a file fully or not at all (temp file + rename).

    ``data`` is text, bytes, or a tuple of bytes-like chunks written in order,
    such as a header and an array's buffer, so that no joined copy is made.
    The temporary file is created with mode 0o666, so the kernel applies the
    umask as open() would, without the process-wide umask being touched.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            for chunk in data if isinstance(data, tuple) else (data,):
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_snapshot(path, state: State, grid: Grid) -> None:
    """Write a lossless binary snapshot (CVF2 format).

    Layout: four text lines, the magic ``CVF2``, ``ndim s1 ... s_ndim``, the
    domain lengths and ``t=<time>`` (numbers to 17 significant digits), then
    the ``(3, *shape)`` array of u, v and w as raw little-endian float64 in
    C order.
    """
    state.validate(grid)
    header = "\n".join([
        SNAPSHOT_MAGIC,
        " ".join([str(grid.ndim)] + [str(s) for s in grid.shape]),
        " ".join(f"{L:.17g}" for L in grid.lengths),
        f"t={state.t:.17g}",
    ]) + "\n"
    payload = np.ascontiguousarray(state.fields.astype("<f8", copy=False))
    atomic_write(path, (header.encode(), payload))


def read_snapshot(path) -> tuple[State, Grid]:
    """Read a CVF2 snapshot back into (State, Grid); CVF1 text is refused.
    Every error names the file."""
    with open(path, "rb") as handle:
        header = [handle.readline().rstrip(b"\r\n") for _ in range(4)]
        payload = handle.read()
    try:
        if header[0] != SNAPSHOT_MAGIC.encode():
            raise ValueError(f"not a {SNAPSHOT_MAGIC} snapshot (CVF1 text is no longer read)")
        dims, lengths, time_line = (line.decode() for line in header[1:])
        numbers = [int(s) for s in dims.split()]  # ndim, then the cells per axis
        if not numbers or len(numbers) != numbers[0] + 1:
            raise ValueError(f"dimension header {dims!r} is inconsistent")
        grid = Grid(tuple(numbers[1:]), tuple(float(x) for x in lengths.split()))
        if not time_line.startswith("t="):
            raise ValueError(f"missing time line, got {time_line!r}")
        n = grid.n_cells
        if len(payload) != 3 * n * 8:
            raise ValueError(f"payload holds {len(payload)} bytes, "
                             f"not the 3 * {n} * 8 = {3 * n * 8} of its grid")
        fields = np.frombuffer(payload, "<f8").astype(float, copy=False)
        state = State.from_fields(fields.reshape((3,) + grid.shape), float(time_line[2:]))
        state.validate(grid)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return state, grid
