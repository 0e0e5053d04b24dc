"""Time integration with adaptive steps and a hard positivity guarantee.

Two schemes are provided:

``imex`` (default)
    Chemotaxis, the u*w conversion and the kappa source advance
    explicitly; diffusion and the linear decays advance implicitly,
    (1 + dt*decay - dt*d*lap) x = star per field, by one exact DCT
    Helmholtz solve of the stacked fields.  Folding the decay into the
    implicit operator makes the infection-free state (kappa, 0, 0) an exact
    fixed point of the discrete map.

``explicit-euler``
    Everything explicit.  With unit-coefficient reactions the discrete
    total mass M = int(u) + int(v) then obeys
    M_{k+1} = M_k + dt (kappa |O| - M_k) exactly (the conversion terms are
    the identical array and the transport terms integrate to zero), which
    the monitors exploit as an oracle.

Both schemes start from fields + dt * rates (for imex, the input of the
implicit solve).  The rates are the dt-independent part of the step,
assembled once per state on the stacked (3, *shape) field array.

Negative values are never clamped: a step that produces a negative or
non-finite value raises NegativityDetected and the driver retries with
half the step, aborting the run after 20 halvings.  Clamping would
silently break the mass identity.

An ensemble of runs that differ only in alpha and initial data advances as
one (E, 3, *shape) array, member first, through the same kernels: the
rates, the step-size formula, the positivity check and the implicit solve
act on each member's (3, *shape) block exactly as on a single state, so a
member's trajectory equals its single run bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    _donor_cell_divergence,
    _face_differences,
    _laplacian_raw,
    _max_gradient,
    helmholtz_solve,
)
from .grid import Grid, State, integrate, require
from .model import ExponentInfeasibleError, Params, select_energy_exponent
from .monitors import DiagnosticsRecord, RunBaseline, compute_record

SCHEMES = ("imex", "explicit-euler")
MAX_HALVINGS = 20


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
    """Step-size policy.  dt_max is deliberately small by default: the
    implicit decay introduces an O(dt) surplus in the monitored mass bounds
    and 0.01 keeps that surplus well inside the acceptance tolerances."""

    dt_max: float = 0.01
    cfl_advect: float = 0.4
    cfl_react: float = 0.9
    scheme: str = "imex"

    def __post_init__(self):
        require(self.dt_max > 0, "dt_max", "dt_max > 0", self.dt_max)
        for name in ("cfl_advect", "cfl_react"):
            value = getattr(self, name)
            require(0 < value < 1, name, f"0 < {name} < 1", value)
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
    baseline: RunBaseline | None = None


class _StepSize:
    """The step-size formula of stable_dt.

    Its state-independent parts, the fixed caps (dt_max and the
    explicit-diffusion cap) and the constant factors of the others, are
    evaluated once at construction; run builds one per run and calls it on
    every state.
    """

    def __init__(self, params: Params, grid: Grid, control: StepControl):
        self.params, self.grid = params, grid
        c = params.coeffs
        h_min = min(grid.spacing)
        self.fixed_cap = control.dt_max
        if control.scheme == "explicit-euler":
            diffusivity = max(c.d_u, c.d_v, c.d_w)
            self.fixed_cap = min(self.fixed_cap, control.cfl_advect * h_min ** 2
                                 / (2.0 * grid.ndim * diffusivity))
        self.cfl_react, self.decay_u = control.cfl_react, c.decay_u
        self.other_decays = max(c.decay_v, c.decay_w)
        self.advect_length, self.faces = control.cfl_advect * h_min, 2.0 * grid.ndim

    def __call__(self, state: State) -> float:
        _, gmax = _velocity(state, self.grid)
        return self.limit(float(state.w.max()), float(state.u.min()), gmax, self.params.alpha)

    def members(self, state: State, alphas: list) -> list[float]:
        """The step of each member of an ensemble state, one alpha per member."""
        per_member = state.fields.reshape(len(alphas), 3, -1)
        _, gmax = _velocity(state, self.grid)
        return list(map(self.limit, per_member[:, 2].max(axis=1).tolist(),
                        per_member[:, 0].min(axis=1).tolist(), gmax.tolist(), alphas))

    def limit(self, w_max: float, u_min: float, gmax: float, alpha: float) -> float:
        """The formula, from a state's max w, min u and max |grad v|."""
        loss_rate = max(w_max + self.decay_u, self.other_decays)
        dt = min(self.fixed_cap, self.cfl_react / loss_rate)
        if gmax > 0.0:
            speed = self.faces * gmax * (1.0 + u_min) ** (-alpha)
            dt = min(dt, self.advect_length / speed)
        return dt


def stable_dt(state: State, params: Params, grid: Grid, control: StepControl) -> float:
    """Largest step the positivity-preserving bounds allow.

    Advective cap: the donor-cell chemotaxis update removes at most
    dt * phi(u_i)/u_i * sum_k 2 max|grad v|/h_k of each cell's content, and
    phi(u)/u = (1+u)^-alpha is largest at the smallest u, so

        dt <= cfl_advect * h_min / (2 ndim * max|grad v| * (1+min u)^-alpha)

    keeps the pure advective update nonnegative.  Reaction cap: the
    explicit pointwise loss rate is at most max(w) + decay, giving
    dt <= cfl_react / max(w + decay).  Explicit diffusion adds the usual
    h^2/(2 ndim d) limit.  With no velocity and dt_max as the only cap the
    result is dt_max, so the step is always positive.
    """
    return _StepSize(params, grid, control)(state)


def _components(fields: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """The u, v and w blocks of a (3, *shape) array or of an ensemble's (E, 3, *shape)."""
    if fields.ndim == grid.ndim + 1:
        return fields[0], fields[1], fields[2]
    return fields[:, 0], fields[:, 1], fields[:, 2]


def _velocity(state: State, grid: Grid) -> tuple[list[np.ndarray], float]:
    """Face differences of v and max |grad v| (per member), computed once per state."""
    cached = state.memo.get("velocity")
    if cached is None or cached[0] is not grid:
        differences = _face_differences(_components(state.fields, grid)[1], grid)
        cached = state.memo["velocity"] = (grid, differences, _max_gradient(differences, grid))
    return cached[1], cached[2]


def _rates(state: State, params, grid: Grid, scheme: str) -> np.ndarray:
    """The dt-independent part of a step, stacked like state.fields.

    For explicit-euler this is the whole right-hand side; for imex it is
    the explicitly treated terms.  Memoised on the state, so a dt-halving
    retry only redoes fields + dt * rates.  An ensemble state comes with a
    tuple of per-member Params, which share kappa and the coefficients.
    """
    key = (params, grid, scheme)
    cached = state.memo.get("rates")
    if cached is not None and cached[0] == key:
        return cached[1]
    members = not isinstance(params, Params)
    if members:
        shared, alpha = params[0], tuple(p.alpha for p in params)
    else:
        shared, alpha = params, params.alpha
    c = shared.coeffs
    fields = state.fields
    u, v, w = _components(fields, grid)
    differences, gmax = _velocity(state, grid)
    # a member without a gradient gets a divergence of exact zeros
    moving = gmax.any() if members else gmax != 0.0
    conversion = u * w  # the identical array enters u and v: exact mass budget
    if scheme == "explicit-euler":
        rates = _laplacian_raw(fields, grid)
        rates_u, rates_v, rates_w = _components(rates, grid)
        diffusivities = (c.d_u, c.d_v, c.d_w)
        if diffusivities != _UNIT:
            rates *= _column(diffusivities, grid.ndim)
        if moving:
            rates_u -= _donor_cell_divergence(u, differences, grid, alpha)
        rates_u -= conversion
        rates_v += conversion
        rates_u += shared.kappa
        rates_w += v if c.production == 1.0 else c.production * v
        decays = (c.decay_u, c.decay_v, c.decay_w)
        rates -= fields if decays == _UNIT else _column(decays, grid.ndim) * fields
    else:
        rates = np.empty_like(fields)
        rates_u, rates_v, rates_w = _components(rates, grid)
        np.subtract(shared.kappa, conversion, out=rates_u)
        if moving:
            rates_u -= _donor_cell_divergence(u, differences, grid, alpha)
        rates_v[...] = conversion
        np.multiply(c.production, v, out=rates_w)
    state.memo["rates"] = (key, rates)
    return rates


# the default unit coefficients skip their scaling pass, a numpy call per step
_UNIT = (1.0, 1.0, 1.0)


@functools.cache
def _column(values: tuple[float, float, float], ndim: int) -> np.ndarray:
    # per-component coefficients shaped to broadcast against (3, *shape)
    column = np.reshape(values, (3,) + (1,) * ndim)
    column.flags.writeable = False
    return column


def step(state: State, params, grid: Grid, dt, control: StepControl):
    """Advance one step of the selected scheme.

    Raises NegativityDetected when any value of the new state is negative
    or not finite.

    An ensemble advances as one: ``state.fields`` stacks the members on a
    leading axis, ``(E, 3, *shape)``, and ``state.t`` holds their times;
    ``params`` is a tuple of per-member Params that differ only in alpha,
    and ``dt`` an array of per-member steps.  Nothing is raised then: step
    returns the new ensemble state and a boolean array marking the members
    whose values are all nonnegative and finite.
    """
    members = not isinstance(params, Params)
    if members:
        dt = np.asarray(dt, dtype=float)
        scale, positive = dt.reshape((-1,) + (1,) * (grid.ndim + 1)), bool((dt > 0).all())
    else:
        scale, positive = dt, dt > 0
    if not positive:
        raise ValueError(f"dt must be > 0, got {dt}")
    new = _rates(state, params, grid, control.scheme) * scale
    new += state.fields
    if control.scheme == "imex":
        # (1 + dt*decay - dt*d*lap) x = star per field, rescaled onto
        # (I - tau*lap) x = rhs and solved for all three fields in one call
        c = (params[0] if members else params).coeffs
        denominator = 1.0 + scale * _column((c.decay_u, c.decay_v, c.decay_w), grid.ndim)
        new /= denominator
        new = helmholtz_solve(new, scale * _column((c.d_u, c.d_v, c.d_w), grid.ndim)
                              / denominator, grid)
    # the minimum catches negatives and NaN, the maximum +inf
    if members:
        per_member = new.reshape(len(dt), -1)
        ok = (per_member.min(axis=1) >= 0.0) & np.isfinite(per_member.max(axis=1))
        return State.from_fields(new, state.t + dt), ok
    if not (float(new.min()) >= 0.0 and math.isfinite(float(new.max()))):
        raise _violation(new, dt)
    return State.from_fields(new, state.t + dt)


def _violation(fields: np.ndarray, dt: float) -> NegativityDetected:
    # failure path only: name the first component that is negative or not finite
    for name, values in zip("uvw", fields):
        for value in (float(values.min()), float(values.max())):
            if not (value >= 0.0 and math.isfinite(value)):
                return NegativityDetected(name, value, dt)
    raise AssertionError("no component violates positivity")


def _monitor_targets(t_end: float, monitor_every: float) -> list[float]:
    if monitor_every <= 0:
        return [t_end]
    targets = []
    k = 1
    while k * monitor_every < t_end - 1e-9 * max(1.0, t_end):
        targets.append(k * monitor_every)
        k += 1
    targets.append(t_end)
    return targets


def _start(initial: State, params: Params, grid: Grid) -> RunResult:
    """A result holding the validated initial state, its baseline and energy exponent."""
    initial.validate(grid)
    baseline = RunBaseline(
        mass_u0=integrate(initial.u, grid),
        mass_uv0=integrate(initial.u, grid) + integrate(initial.v, grid),
        volume=grid.volume,
    )
    try:
        exponent = float(select_energy_exponent(params.alpha, grid.ndim).p)
    except ExponentInfeasibleError:
        exponent = None
    return RunResult([], initial.copy(), energy_exponent=exponent, baseline=baseline)


def run(initial, params, grid: Grid, control: StepControl,
        t_end: float, monitor_every: float, on_record=None):
    """Advance to t_end, emitting diagnostics every monitor_every time units.

    The step size is re-evaluated from stable_dt every step and clipped so
    each monitor boundary is hit exactly; records land at t = 0, every
    boundary, and t_end.  Deterministic for identical inputs.  Raises
    UnstableRunError (with the failing time and state) when positivity
    cannot be restored by halving dt, or when the step-size formula gives a
    dt too small to change the next monitor time (target + dt == target):
    at once when that dt is 0, else after its step, so that a positivity
    failure of that step is the one reported.

    A list of initial states with a matching list of Params, differing only
    in alpha, runs as one ensemble and returns a list with one entry per
    member: its RunResult, equal bit for bit to a single run's, or the
    UnstableRunError that aborted it.  on_record is for single states.
    """
    require(t_end >= 0, "t_end", "t_end >= 0", t_end)
    if isinstance(initial, (list, tuple)):
        if on_record is not None:
            raise ValueError("on_record needs a single initial state")
        return _run_ensemble(list(initial), tuple(params), grid, control, t_end, monitor_every)
    result = _start(initial, params, grid)
    if t_end == 0:
        return result

    state = initial.copy()
    step_size = _StepSize(params, grid, control)
    exponent, baseline = result.energy_exponent, result.baseline
    record = compute_record(state, grid, params, exponent, baseline)
    result.records.append(record)
    if on_record is not None:
        on_record(state, record)

    steps, max_dt = 0, 0.0
    for target in _monitor_targets(t_end, monitor_every):
        cutoff = target - 1e-12 * max(1.0, target)
        while state.t < cutoff:
            formula = step_size(state)
            if not formula > 0:
                raise UnstableRunError(state.t, state.copy(), None, formula)
            dt = min(formula, target - state.t)
            last_error = None
            for _ in range(MAX_HALVINGS + 1):
                try:
                    state = step(state, params, grid, dt, control)
                    break
                except NegativityDetected as error:
                    last_error = error
                    result.negativity_retries += 1
                    dt *= 0.5
            else:
                raise UnstableRunError(state.t, state.copy(), last_error)
            steps += 1
            max_dt = max(max_dt, dt)
            if not target + formula > target:
                raise UnstableRunError(state.t, state.copy(), None, formula)
        state.t = target  # snap off the accumulated roundoff
        record = compute_record(state, grid, params, exponent, baseline)
        result.records.append(record)
        if on_record is not None:
            on_record(state, record)

    result.final_state = state
    result.steps, result.max_dt = steps, max_dt
    return result


def _run_ensemble(initials: list[State], params: tuple[Params, ...], grid: Grid,
                  control: StepControl, t_end: float, monitor_every: float) -> list:
    """run's loop for every member at once, on one (E, 3, *shape) array.

    Toward each monitor target, the members short of it step together,
    each with its own dt; a member that fails positivity retries alone with
    half its dt.  One that exhausts the halvings, or whose dt cannot advance
    the time, drops out, its UnstableRunError taking its place in the
    returned list.
    """
    if len(params) != len(initials):
        raise ValueError(f"{len(initials)} initial states but {len(params)} Params")
    if any(p.kappa != params[0].kappa or p.coeffs != params[0].coeffs for p in params):
        raise ValueError("ensemble members may differ only in alpha")
    results = [_start(initial, p, grid) for initial, p in zip(initials, params)]
    if t_end == 0 or not initials:
        return results

    count = len(initials)
    fields = np.stack([initial.fields for initial in initials])
    times = np.array([initial.t for initial in initials], dtype=float)
    steps, retries = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    max_dt = np.zeros(count)
    live = np.ones(count, dtype=bool)
    alphas = [p.alpha for p in params]
    step_size = _StepSize(params[0], grid, control)

    def abort(i, last_error, dt):
        t = float(times[i])
        results[i] = UnstableRunError(t, State.from_fields(fields[i].copy(), t), last_error, dt)
        live[i] = False

    def record():
        # one call for all live members
        index = np.flatnonzero(live)
        if len(index):
            records = compute_record(
                State.from_fields(fields[index], times[index]), grid,
                [params[i] for i in index], [results[i].energy_exponent for i in index],
                [results[i].baseline for i in index])
            for i, member_record in zip(index, records):
                results[i].records.append(member_record)

    record()
    for target in _monitor_targets(t_end, monitor_every):
        cutoff = target - 1e-12 * max(1.0, target)
        while True:
            index = np.flatnonzero(live & (times < cutoff))
            if not len(index):
                break
            state = State.from_fields(fields[index], times[index])
            formula = step_size.members(state, [alphas[i] for i in index])
            # as in run: a dt that cannot change the target time aborts its
            # member, at once when it is 0, else after its step
            stuck = [] if target + min(formula) > target else [
                (i, tried) for i, tried in zip(index.tolist(), formula)
                if not target + tried > target]
            if stuck and any(tried == 0.0 for _, tried in stuck):
                for i, tried in stuck:
                    if tried == 0.0:
                        abort(i, None, tried)
                continue
            dt = np.minimum(formula, target - state.t)
            for attempt in range(MAX_HALVINGS + 1):
                new, ok = step(state, tuple(params[i] for i in index), grid, dt, control)
                done = index[ok]
                if len(done) == count:
                    fields = new.fields
                elif len(done):
                    if not fields.flags.writeable:  # a step's fields are read-only
                        fields = fields.copy()
                    fields[done] = new.fields[ok]
                times[done] = new.t[ok]
                steps[done] += 1
                max_dt[done] = np.maximum(max_dt[done], dt[ok])
                if ok.all():
                    break
                failed = ~ok
                retries[index[failed]] += 1
                if attempt == MAX_HALVINGS:
                    for i, values, tried in zip(index[failed], new.fields[failed], dt[failed]):
                        abort(i, _violation(values, float(tried)), float(tried))
                    break
                index, dt = index[failed], dt[failed] * 0.5
                state = State.from_fields(state.fields[failed], state.t[failed])
            for i, tried in stuck:
                if live[i]:
                    abort(i, None, tried)
        times[live] = target  # snap off the accumulated roundoff
        record()

    for i in np.flatnonzero(live):
        results[i].final_state = State.from_fields(fields[i], float(times[i]))
        results[i].steps, results[i].negativity_retries = int(steps[i]), int(retries[i])
        results[i].max_dt = float(max_dt[i])
    return results
