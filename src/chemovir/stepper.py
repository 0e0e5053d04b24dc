"""Time integration with adaptive steps and a hard positivity guarantee.

Both schemes share one right-hand side without diffusion, N - decay*f,
where N holds the kappa source, the u*w conversion, chemotaxis and the
production of w.  Its rates are the dt-independent part of the step,
assembled once per state on the stacked field array.

``imex`` (default)
    Exponential Euler in the decay, implicit diffusion: per field,
    (I - phi*d*lap) x = f + phi*(N - decay*f), phi = (1 - e^(-decay*dt))/decay,
    by one exact DCT Helmholtz solve of the stacked fields.  When u and v
    share the decay rate d, the total mass M = int(u) + int(v) then obeys the
    continuum identity M_{k+1} = e^{-d dt} M_k + kappa |O| (1 - e^{-d dt})/d
    at any dt.  Every steady state of the semi-discrete system is a fixed
    point at every dt; (kappa/decay_u, 0, 0) stays put bit for bit when
    decay_u * (kappa/decay_u) rounds to kappa, as at unit decay.
    1 - phi*decay = e^{-decay*dt} > 0: the decay cannot make a value negative.

``explicit-euler``
    Everything explicit, diffusion in the rates.  With unit-coefficient
    reactions the total mass obeys M_{k+1} = M_k + dt (kappa |O| - M_k)
    exactly, which the monitors exploit as an oracle.

Every run is an ensemble: runs that differ only in alpha and initial data
advance as one (E, 3, *shape) array, member first, and a single run is the
ensemble of one member.  Every kernel acts on each member's (3, *shape)
block as on a lone state, so a member's trajectory does not depend on its
ensemble, bit for bit.

One ensemble step is one call of step, straight-line numpy on the stacked
array, with the Laplacian and the donor-cell divergence of the discretization
module fused in.  A _Plan made once per run holds the constants, the runs
of equal alphas and one workspace for every intermediate of a step: the
face differences, taken once per state (the plan records whose they are),
the rates, which under imex become the right-hand side in place, and the
solve's scratch.  On grids of more than 4,096 cells a step thus allocates
only the new state's fields; on smaller ones numpy's iterator also
buffers, within the call, the operands that broadcast over the fields,
such as the solve's (E, 3, 1, ...) tau*lambda and the factor that scales
the imex right-hand side, and a step peaks at up to about 5x the fields.
Under both schemes each axis's face flux is built in one flat bordered
array (see _Plan).  The face kernels, |diff v| and the donor-cell flux,
run on each member's contiguous row of the faces above its first N - s
cells, N its cell count and s the axis's stride.  The row takes in the
zero faces where it crosses from one slab of the axis to the next; diff v
is +0.0 there, so phi_up*0 keeps them +0.0 for a valid u, and |0| cannot
raise max |grad v|.  Only a u holding -0.0 moves bits: under imex the zero
face beside it becomes -0.0, as an interior face with diff v = 0 does.
The step size needs max |grad v| only when its upper bound, (max v -
min v)/h_min from the memoised extrema, cannot rule out the advective cap.
Members that reach a monitor target together are recorded from the state
they reached, which goes on to the next target as it is: no copy, and its
memoised extrema are kept.  The records at t = 0 are the run's baseline:
every later record's mass oracles relax from their masses.

Negative values are never clamped: a member whose step produces a
negative or non-finite value retries with half the step, the ensemble
stepping again from the same state, and its run aborts after 20 halvings.
Clamping would silently break the mass identity.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .discretization import _sensitivity, helmholtz_solve
from .grid import Grid, State, _extrema, _member_runs, require
from .model import Params, alpha_threshold, select_energy_exponent
from .monitors import DiagnosticsRecord, compute_record

SCHEMES = ("imex", "explicit-euler")
MAX_HALVINGS = 20
# the reaction cap's share of the step at which explicit losses would empty a cell
_CFL_REACT = 0.9


class NegativityDetected(RuntimeError):
    """A step drove a component negative or non-finite; retry with a smaller dt.

    ``minimum`` holds the offending value: the component's minimum, or its
    non-finite maximum.
    """

    def __init__(self, component: str, minimum: float, dt: float):
        super().__init__(f"{component} reached {minimum:.3e} with dt={dt:.3e}")
        self.component = component
        self.minimum = minimum
        self.dt = dt


class UnstableRunError(RuntimeError):
    """A run aborted: repeated dt halvings could not restore positivity
    (``last_error`` holds the last violation), or the step-size formula
    gave a dt too small to advance the time (``last_error`` is None)."""

    def __init__(self, t: float, state: State, last_error: NegativityDetected | None,
                 dt: float = 0.0):
        cause = (f"after {MAX_HALVINGS} dt halvings ({last_error})" if last_error is not None
                 else f"because the step-size formula gave dt={dt:.3e}, too small to advance t")
        super().__init__(f"run aborted at t={t:.6g} {cause}")
        self.t = t
        self.state = state
        self.last_error = last_error


@dataclass(frozen=True)
class StepControl:
    """Step-size policy.  The imex scheme keeps the mass identity and bounds
    at any dt, so dt_max caps only the O(dt) time error: at 0.05 a sweep's
    verdicts equal, and its peaks and energies lie within 1% of, a
    dt_max = 0.001 run's."""

    dt_max: float = 0.05
    cfl_advect: float = 0.4
    scheme: str = "imex"

    def __post_init__(self):
        require(self.dt_max > 0, "dt_max", "dt_max > 0", self.dt_max)
        require(0 < self.cfl_advect < 1, "cfl_advect", "0 < cfl_advect < 1", self.cfl_advect)
        require(self.scheme in SCHEMES, "scheme", f"one of {SCHEMES}", self.scheme)


@dataclass
class RunResult:
    """Trajectory of diagnostics plus the final state and step statistics."""

    records: list[DiagnosticsRecord]
    final_state: State
    steps: int = 0
    negativity_retries: int = 0
    max_dt: float = 0.0
    energy_exponent: float | None = None


class _Plan:
    """What every step of one ensemble shares, made once per run: the step-size
    formula's state-independent parts, the kinetics' coefficients and a
    workspace, one buffer that every step refills, with views of its faces.
    step hands the plan on from each state to the next in State.memo.

    The workspace holds ``rates``, the stacked rates and then the imex
    right-hand side; one bordered face array per axis; and ``phi`` (|grad
    v| for the advective cap, then phi(u), u*w and production*v).  An
    axis's bordered array b holds r*n + s values, s the axis's stride (the
    product of the later axes' cell counts) and r rows of n values the
    rows it differences: every field's, 3*E*N values as one row, under
    explicit-euler, and each member's v, E rows of N, under imex.  b[s + j]
    is the face above cell j of the rows; its first s faces and those
    above each row's last cell are zeroed for each state, so that every
    row has a zero face at both ends.  The face flux is built in b, so that
    an axis's divergence is one subtraction: its upper faces less its lower
    ones under explicit-euler, (d*diff f - phi_up*diff v)/h^2 in u's row and
    d*diff f/h^2 in the others; its lower less its upper ones under imex,
    which treats diffusion implicitly, u's rate -div(phi_up grad v).  The
    unscaled donor-cell flux phi_up*diff v, on each member's contiguous row
    (see the module docstring), lies in a buffer after phi until u's row
    takes it under explicit-euler, and is formed in place in v's
    differences under imex.  One division by h^2 follows, exact on a
    spacing of 2^-k, where the flux thus equals (phi_up*(diff v/h))/h bit
    for bit.  ``spare``, three fields' worth, lies past the bordered arrays
    under explicit-euler, over phi and that buffer, and over the arrays
    under imex, whose rates leave them free.  Each is free again whenever
    it is used: for an axis's divergence after the first (in phi under
    imex), for decays*fields, and as the solve's scratch.
    """

    def __init__(self, params: tuple, grid: Grid, control: StepControl, shape: tuple):
        self.params, self.grid, self.control = params, grid, control
        c, ndim = params[0].coeffs, grid.ndim
        self.explicit = control.scheme == "explicit-euler"
        self.alphas = tuple([p.alpha for p in params])
        # the runs of equal alphas, each raised as one block with its scalar alpha
        self.alpha_runs = tuple(_member_runs(self.alphas))
        self.h_min = h_min = min(grid.spacing)
        self.fixed_cap = control.dt_max
        if self.explicit:
            self.fixed_cap = min(self.fixed_cap, control.cfl_advect * h_min ** 2
                                 / (2.0 * ndim * max(c.d_u, c.d_v, c.d_w)))
        self.decay_u = c.decay_u
        self.other_decays = max(c.decay_v, c.decay_w)
        self.advect_length, self.faces = control.cfl_advect * h_min, 2.0 * ndim
        # the default unit coefficients skip their scaling pass, a numpy call per step
        self.kappa, self.production = params[0].kappa, c.production
        diffusivities, decays = (c.d_u, c.d_v, c.d_w), (c.decay_u, c.decay_v, c.decay_w)
        self.diffusivities = (None if diffusivities == (1.0,) * 3 or not self.explicit
                              else _column(diffusivities, ndim))
        self.decays = None if decays == (1.0,) * 3 else _column(decays, ndim)
        # indices of u, v and w in member-first arrays
        self.components_index = tuple((slice(None), k) for k in range(3))
        self.source = None  # the fields whose differences the workspace holds

        field = shape[:1] + grid.shape  # one component of every member
        size, members, n_cells = math.prod(field), shape[0], grid.n_cells
        # the bordered arrays difference r rows of n values, pick's in the
        # fields reshaped to plan.rows: every field's as one flat row, or each
        # member's v; views of the r rows have the shape as_rows
        r, n = (1, 3 * size) if self.explicit else (members, n_cells)
        self.rows, pick = ((-1,), ()) if self.explicit else ((r, 3, n), (slice(None), 1))
        as_rows = (-1,) if self.explicit else (r, n)
        strides = [math.prod(grid.shape[axis + 1:]) for axis in range(ndim)]
        lengths = [r * n + s for s in strides]
        # rates, the bordered arrays and phi; spare lies past the arrays, or over them under imex
        phi_at = 3 * size + sum(lengths)
        spare_at = phi_at if self.explicit else 3 * size
        workspace = np.zeros(max(phi_at + size, spare_at + 3 * size))
        self.rates, *bordered, self.phi = _views(
            workspace, [shape, *[(length,) for length in lengths], field])
        self.components = self.rates[:, 0], self.rates[:, 1], self.rates[:, 2]
        self.spare = spare = workspace[spare_at:spare_at + 3 * size].reshape(shape)
        # per axis: the rows' cells above and below its faces, where their
        # difference goes, and b's zero faces, the first s of every cells*s
        # values from its start, in a view reaching past b
        self.bordered, self.differencing, start = bordered, [], 3 * size
        for s, b, cells in zip(strides, bordered, grid.shape):
            zeros = workspace[start:start + r * n + cells * s].reshape(-1, cells, s)[:, 0]
            above, below = pick + (slice(s, None),), pick + (slice(None, -s),)
            self.differencing.append((above, below, b[s:].reshape(as_rows)[..., :-s], zeros))
            start += b.size
        # per axis, the face above each cell, where the flux is built, with
        # h^2; and each member's row of faces above its first N - s cells:
        # v's, u's under explicit-euler, phi either side, |grad v| and the flux
        rows = [b[s:].reshape(members, -1, n_cells)[..., :n_cells - s]
                for s, b in zip(strides, bordered)]
        self.velocity = [row[:, 1 if self.explicit else 0] for row in rows]
        self.fluxes = [(b[s:].reshape(shape if self.explicit else field), h * h,
                        row[:, 0] if self.explicit else None)
                       for s, b, h, row in zip(strides, bordered, grid.spacing, rows)]
        self.magnitudes = [_views(self.phi, [v.shape])[0] for v in self.velocity]
        flux = ([_views(spare.reshape(-1)[size:], [v.shape])[0] for v in self.velocity]
                if self.explicit else self.velocity)
        phi = self.phi.reshape(members, n_cells)
        self.donor_cell = [(phi[:, :n_cells - s], phi[:, s:], out)
                           for s, out in zip(strides, flux)]
        # per axis, the subtraction that gives its divergence and where it
        # goes: the first axis's to total, each further one's to part, added to total
        self.total = self.rates.reshape(r, -1)[:, :n].reshape(as_rows)
        self.part = workspace[phi_at:phi_at + r * n].reshape(as_rows)
        self.sides = []
        for s, b, out in zip(strides, bordered, [self.total] + [self.part] * (ndim - 1)):
            upper, lower = b[s:].reshape(as_rows), b[:-s].reshape(as_rows)
            self.sides.append((upper, lower, out) if self.explicit else (lower, upper, out))
        self.others = self.rates[:, 1:]  # v's and w's rates, which imex starts from zeros

    def step_sizes(self, state: State, until: float = math.inf) -> list[float]:
        """Each member's step from its extrema and max |grad v|, clipped at
        ``until``.

        max |grad v| is at most (max v - min v)/h_min, and the advective cap
        falls as max |grad v| grows, each float operation being monotone.
        So when the cap at that bound is no smaller than the other caps, the
        cap cannot bind, and the reduction for max |grad v| is skipped: dt
        is the same bit for bit.  The reduction runs once per state, for
        every member, when some member's bound cannot decide.
        """
        low, high = _extrema(state)
        steps, gmax = [], None
        for k, (lo, hi, alpha, t) in enumerate(zip(low, high, self.alphas, state.t)):
            dt = min(self.fixed_cap, _CFL_REACT / max(hi[2] + self.decay_u, self.other_decays),
                     until - t)
            spread = hi[1] - lo[1]
            # a damping of 0 leaves the member no advective cap (see stable_dt)
            if spread > 0.0 and (damping := (1.0 + lo[0]) ** (-alpha)) > 0.0:
                if gmax is None and self.advect_length / (
                        self.faces * (spread / self.h_min) * damping) < dt:
                    gmax = _gradient_max(state, self)
                if gmax is not None and gmax[k] > 0.0:
                    dt = min(dt, self.advect_length / (self.faces * gmax[k] * damping))
            steps.append(dt)
        return steps


def _views(buffer: np.ndarray, shapes: list) -> list[np.ndarray]:
    """Views of one of each shape, laid out one after another from the
    start of a C-contiguous buffer."""
    flat, views, start = buffer.reshape(-1), [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def stable_dt(state: State, params: Params, grid: Grid, control: StepControl) -> float:
    """Largest step the positivity-preserving bounds allow.

    Advective cap: the donor-cell chemotaxis update removes at most
    dt * phi(u_i)/u_i * sum_k 2 max|grad v|/h_k of each cell's content, and
    phi(u)/u = (1+u)^-alpha is largest at the smallest u, so

        dt <= cfl_advect * h_min / (2 ndim * max|grad v| * (1+min u)^-alpha)

    keeps the pure advective update nonnegative; a damping that underflows
    to 0 (kappa = 1e200, alpha = 2) leaves no cap, as numpy's (1+u)^alpha is
    then inf in every cell, so that phi(u) and the flux are exactly 0.
    Reaction cap: the explicit pointwise loss rate is at most max(w) +
    decay, giving dt <= _CFL_REACT / max(w + decay), with the constant
    _CFL_REACT = 0.9.
    Explicit diffusion adds the usual h^2/(2 ndim d) limit.  With no
    velocity and dt_max as the only cap the result is dt_max, so the step
    is always positive.  max|grad v| is reduced over the face differences
    only when its bound (max v - min v)/h_min leaves the advective cap
    below the others; the result is the same either way, bit for bit.
    """
    member = State.from_fields(state.fields[None], [state.t])  # the ensemble of one member
    return _Plan((params,), grid, control, member.fields.shape).step_sizes(member)[0]


def _valid(lo: list, hi: list) -> bool:
    """Whether a member's extrema show no negative, NaN (a NaN minimum) or inf value."""
    return lo[0] >= 0.0 and lo[1] >= 0.0 and lo[2] >= 0.0 and max(hi) < math.inf


def _violation(low: list, high: list, dt: float) -> NegativityDetected:
    # failure path only: name a member's first component that is negative or not finite
    for name, lo, hi in zip("uvw", low, high):
        for value in (lo, hi):
            if not (value >= 0.0 and math.isfinite(value)):
                return NegativityDetected(name, value, dt)
    raise AssertionError("no component violates positivity")


def _differences(state: State, plan: _Plan) -> list:
    """An ensemble state's face differences in the plan's bordered arrays:
    those of every field under explicit-euler, of v alone under imex, each
    axis's by one subtraction of the rows the plan names and one fill of
    its zero faces.  They are taken only when plan.source, the fields
    array they came from, is not the state's; _rates consumes them and
    clears it.  Returns v's, per axis."""
    fields = state.fields
    if plan.source is fields:
        return plan.velocity
    rows = fields.reshape(plan.rows)
    for above, below, out, zeros in plan.differencing:
        np.subtract(rows[above], rows[below], out=out)
        zeros.fill(0.0)  # faces taken across two rows, or left by the solve's scratch
    plan.source = fields
    return plan.velocity


def _gradient_max(state: State, plan: _Plan) -> list[float]:
    """Each member's max |grad v|, over v's face differences."""
    gmax = None
    for d, magnitude, h in zip(_differences(state, plan), plan.magnitudes, plan.grid.spacing):
        largest = [m / h for m in np.maximum.reduce(np.abs(d, out=magnitude), 1).tolist()]
        gmax = largest if gmax is None else list(map(max, gmax, largest))
    return gmax


def _donor_flux(d, phi_below, phi_above, out: np.ndarray) -> np.ndarray:
    """In out, the unscaled donor-cell flux phi(u) d of v's face differences
    d, phi from the cell the flux leaves.  The caller divides it by h^2, with
    the diffusion flux under explicit-euler: on a spacing of 2^-k that
    division is exact, so the flux equals (phi (d/h))/h bit for bit."""
    return np.multiply(np.where(d > 0.0, phi_below, phi_above), d, out=out)


def _rates(state: State, plan: _Plan) -> np.ndarray:
    """The dt-independent part of a step of an ensemble state, in plan.rates.

    The only place the kinetics are written: the kappa source, the u*w
    conversion, production*v and the decay, plus chemotaxis, on top of
    zeros for imex, which treats diffusion implicitly, or of d*lap(fields)
    for explicit-euler; laplacian_neumann and chemotaxis_divergence are the
    references of the fused stencils.  Each axis's face flux is built in
    its bordered array (see _Plan), the donor-cell flux taken before the
    diffusivities scale v's differences.  The divergence is one subtraction
    per axis, and each further axis is summed in axis order, so that
    mirroring any axis mirrors the rates bit for bit.  Every intermediate
    lies in the plan's workspace, and the differences are consumed:
    plan.source is cleared.
    """
    fields, rates = state.fields, plan.rates
    index_u, index_v, index_w = plan.components_index
    u, v, w = fields[index_u], fields[index_v], fields[index_w]
    velocity = _differences(state, plan)
    plan.source = None  # the fluxes are built in them, and imex's solve overwrites them
    # a member whose v is constant gets a chemotactic flux of exact zeros;
    # when every member's is, the flux is skipped
    chemotaxis = any(lo[1] != hi[1] for lo, hi in zip(*_extrema(state)))
    if chemotaxis:
        _sensitivity(u, plan.alpha_runs, plan.phi)
    rates_u, rates_v, rates_w = plan.components
    if plan.explicit or chemotaxis:
        for (faces, h2, faces_u), g, (phi_below, phi_above, flux) in zip(
                plan.fluxes, velocity, plan.donor_cell):
            if chemotaxis:  # before the diffusivities scale v's differences
                _donor_flux(g, phi_below, phi_above, flux)
            if plan.diffusivities is not None:
                faces *= plan.diffusivities
            if chemotaxis and plan.explicit:  # imex's flux stays in v's faces
                faces_u -= flux
            faces /= h2  # (d*diff f - phi_up*diff v)/h^2 in u's row, phi_up*diff v/h^2 in imex's
        for axis, (minuend, subtrahend, out) in enumerate(plan.sides):
            np.subtract(minuend, subtrahend, out=out)
            if axis:
                plan.total += plan.part
    if not plan.explicit:
        (plan.others if chemotaxis else rates).fill(0.0)
    # the identical array enters u and v: exact mass budget
    conversion = np.multiply(u, w, out=plan.phi)
    rates_u -= conversion
    rates_v += conversion
    rates_u += plan.kappa
    rates_w += v if plan.production == 1.0 else np.multiply(plan.production, v, out=plan.phi)
    rates -= fields if plan.decays is None else np.multiply(plan.decays, fields, out=plan.spare)
    return rates


@functools.cache
def _column(values: tuple[float, float, float], ndim: int) -> np.ndarray:
    # per-component coefficients shaped to broadcast against (..., 3, *shape)
    column = np.reshape(values, (3,) + (1,) * ndim)
    column.flags.writeable = False
    return column


def step(state: State, params, grid: Grid, dt, control: StepControl) -> State:
    """Advance one step of the selected scheme.

    A single state with one Params and a float dt advances as the ensemble
    of one member, and step raises NegativityDetected when any value of
    the new state is negative or not finite.

    An ensemble state stacks its members, ``(E, 3, *shape)``, with a list
    of their times; ``params`` is a tuple of per-member Params that differ
    only in alpha, and ``dt`` a sequence of per-member steps, or a float
    for one member.  The new ensemble state is returned as it is: a member
    with a negative or non-finite value is for the caller to retry.
    """
    single = isinstance(params, Params)
    if single:
        state, params, dt = State.from_fields(state.fields[None], [state.t]), (params,), float(dt)
    plan = state.memo.get("plan")
    if (plan is None or plan.params is not params or plan.grid is not grid
            or plan.control is not control):
        plan = _Plan(params, grid, control, state.fields.shape)
    if isinstance(dt, float):  # one member: it scales like a (1, 1, ...) array, and faster
        positive, scale, times = dt > 0, dt, [t + dt for t in state.t]
    else:
        times = [t + d for t, d in zip(state.t, dt)]
        dt = np.asarray(dt, dtype=float)
        positive, scale = bool((dt > 0).all()), dt.reshape((-1,) + (1,) * (grid.ndim + 1))
    if not positive:
        raise ValueError(f"dt must be > 0, got {dt}")
    if plan.explicit:  # the rates scaled by dt
        new = _rates(state, plan) * scale
        new += state.fields
    else:
        # exponential Euler scales the rates by phi = (1 - e^(-decay*dt)) / decay
        # per field and member, and then solves (I - phi*d*lap) x = fields +
        # phi*rates for all three fields in one call; the right-hand side is
        # built in plan.rates, so the solve's result is the one new array
        c = params[0].coeffs
        decays = _column((-c.decay_u, -c.decay_v, -c.decay_w), grid.ndim)
        factor = np.expm1(scale * decays) / decays
        rhs = _rates(state, plan)
        rhs *= factor
        rhs += state.fields
        new = helmholtz_solve(rhs, factor * _column((c.d_u, c.d_v, c.d_w), grid.ndim), grid,
                              scratch=plan.spare)
    new = State.from_fields(new, times)
    new.memo["plan"] = plan
    if single:
        (lo,), (hi,) = _extrema(new)
        if not _valid(lo, hi):
            raise _violation(lo, hi, dt)
        return State.from_fields(new.fields[0], new.t[0])
    return new


def _monitor_targets(t_end: float, monitor_every: float) -> Iterator[float]:
    """Record times after t = 0: the multiples of monitor_every short of t_end, then t_end."""
    k = 1
    while k * monitor_every < t_end - 1e-9 * max(1.0, t_end):
        yield k * monitor_every
        k += 1
    if t_end > 0:
        yield t_end


def run(initial, params, grid: Grid, control: StepControl,
        t_end: float, monitor_every: float, on_record=None):
    """Advance to t_end, emitting diagnostics every monitor_every time units.

    The step size is re-evaluated every step by the plan's step_sizes, with
    the caps of stable_dt, and clipped so each monitor boundary is hit
    exactly; records land at t = 0, every boundary, and t_end, so a run to
    t_end = 0 records once and ends on a copy of its initial state.
    Deterministic for identical inputs.  A member whose step is negative or
    not finite steps again, with its ensemble, at half its dt.  Raises
    UnstableRunError (with the failing time and state) when positivity
    cannot be restored by halving dt, or when the step-size formula gives a
    dt too small to change the next monitor time (target + dt == target):
    at once when that dt is 0, else after its step, so that a positivity
    failure of that step is the one reported.  on_record(state, record) is
    called with the state of every record.  The oracles count t from 0, so
    an initial state at any other t is refused with a ValueError, as are a
    negative t_end and a monitor_every that is not positive, and either
    when not finite.

    A list of initial states with a matching list of Params, differing only
    in alpha, runs as one ensemble and returns a list with one entry per
    member: its RunResult, equal bit for bit to a single run's, or the
    UnstableRunError that aborted it.  on_record is for single states; a
    single state runs as the ensemble of one member.
    """
    require(t_end >= 0, "t_end", "t_end >= 0", t_end)
    require(monitor_every > 0, "monitor_every", "monitor_every > 0", monitor_every)
    if isinstance(initial, (list, tuple)):
        if on_record is not None:
            raise ValueError("on_record needs a single initial state")
        return _run(list(initial), tuple(params), grid, control, t_end, monitor_every)
    result = _run([initial], (params,), grid, control, t_end, monitor_every, on_record)[0]
    if isinstance(result, UnstableRunError):
        raise result
    return result


def _run(initials: list[State], params: tuple[Params, ...], grid: Grid, control: StepControl,
         t_end: float, monitor_every: float, on_record=None) -> list:
    """The run loop, for every member at once on one (E, 3, *shape) array.

    Toward each monitor target, the members short of it step together, one
    step call per ensemble step, each with its own dt.  A member whose step
    is negative or not finite steps again, with the ensemble, from the same
    state at half its dt; the others retake their step bit for bit.  A
    member that exhausts its halvings, or whose dt cannot advance the time,
    drops out, its UnstableRunError taking its place in the returned list.
    When every live member reaches the target in one step, that state is
    recorded and carried on to the next target as it is; otherwise the
    rows of the members at the target are stacked into a new state.
    """
    if len(params) != len(initials):
        raise ValueError(f"{len(initials)} initial states but {len(params)} Params")
    if any(p.kappa != params[0].kappa or p.coeffs != params[0].coeffs for p in params):
        raise ValueError("ensemble members may differ only in alpha")
    results = []
    for initial, p in zip(initials, params):
        if initial.t != 0:  # the oracles count t from 0
            raise ValueError(f"a run starts at t = 0, got an initial state at t={initial.t}")
        initial.validate(grid)
        # an energy exponent exists exactly above the threshold
        exponent = (float(select_energy_exponent(p.alpha, grid.ndim))
                    if p.alpha > alpha_threshold(grid.ndim) else None)
        # the initial state stands in for the final one until the run sets
        # it, so that no copy is held while the run steps
        results.append(RunResult([], initial, energy_exponent=exponent))
    if not initials:
        return results

    # the live members and their state at the last target
    live = list(range(len(initials)))
    state = State.from_fields(np.stack([initial.fields for initial in initials]),
                              [initial.t for initial in initials])
    planned = None

    def abort(i, values, t, last_error, dt):
        results[i] = UnstableRunError(t, State.from_fields(values.copy(), t), last_error, dt)
        live.remove(i)

    def record(state):
        first = [results[i].records[0] for i in live] if results[live[0]].records else None
        records = compute_record(state, grid, [params[i] for i in live],
                                 [results[i].energy_exponent for i in live], first)
        for i, member_record in zip(live, records):
            results[i].records.append(member_record)
        if on_record is not None:
            on_record(State.from_fields(state.fields[0], state.t[0]), records[0])

    record(state)
    for target in _monitor_targets(t_end, monitor_every):
        cutoff = target - 1e-12 * max(1.0, target)
        # the members of the step loop, index, are those of state, and new is
        # where their last steps took them; reached holds the row of each
        # member that left the loop at the target
        index, new, reached = live.copy(), state, {}
        taken, largest, failed, stuck = 0, [0.0] * len(live), {}, ()
        while True:
            keep, arrived = [], []
            for k, i in enumerate(index):
                results[i].steps += taken
                results[i].max_dt = max(results[i].max_dt, largest[k])
                if k in failed:
                    abort(i, state.fields[k], state.t[k], *failed[k])
                elif k in stuck:
                    abort(i, new.fields[k], new.t[k], None, stuck[k])
                elif new.t[k] < cutoff:
                    keep.append(k)
                else:
                    arrived.append((i, k))
            if len(arrived) == len(index) == len(live):
                state = new  # every member is at the target in it: carried on as it is
                break
            for i, k in arrived:
                # a row whose state the loop leaves behind is copied
                reached[i] = new.fields[k].copy() if keep else new.fields[k]
            index = [index[k] for k in keep]
            if not index:
                state = State.from_fields(np.stack([reached[i] for i in live])) if live else None
                break
            if len(keep) < len(new.t):
                new = State.from_fields(new.fields[keep], [new.t[k] for k in keep])
            state = new
            # the same members step until one of them leaves the step loop,
            # with one plan for as long as they are the members
            if index != planned:
                planned, members = index, tuple(params[i] for i in index)
                plan = _Plan(members, grid, control, state.fields.shape)
            state.memo["plan"] = plan
            taken, largest, failed = 0, [0.0] * len(index), {}
            while True:
                dt = plan.step_sizes(state, target)
                # a dt that cannot change the target time aborts its member,
                # at once when it is 0, else after its step
                stuck = () if target + min(dt) > target else {
                    k: tried for k, tried in enumerate(dt) if not target + tried > target}
                if stuck:
                    failed = {k: (None, tried) for k, tried in stuck.items() if not tried > 0.0}
                    if failed:
                        new, stuck = state, ()
                        break
                new = step(state, members, grid, dt[0] if len(dt) == 1 else dt, control)
                if not all(map(_valid, *_extrema(new))):
                    # step again from state, each invalid member's dt halved
                    for halving in range(MAX_HALVINGS + 1):
                        low, high = _extrema(new)
                        invalid = [k for k in range(len(dt)) if not _valid(low[k], high[k])]
                        for k in invalid:
                            results[index[k]].negativity_retries += 1
                        if not invalid or halving == MAX_HALVINGS:
                            break
                        for k in invalid:
                            dt[k] *= 0.5
                        new = step(state, members, grid, dt[0] if len(dt) == 1 else dt, control)
                    failed = {k: (_violation(low[k], high[k], dt[k]), dt[k]) for k in invalid}
                taken, largest = taken + 1, [*map(max, largest, dt)]
                if failed or stuck or not max(new.t) < cutoff:
                    break
                state = new
        if state is None:
            break  # every member aborted
        state.t = [target] * len(live)  # snap off the accumulated roundoff
        record(state)

    for k, i in enumerate(live):
        results[i].final_state = State.from_fields(state.fields[k], state.t[k])
    return results
