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
"""

from __future__ import annotations

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
from .grid import Grid, State, integrate
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
    """A run aborted: repeated dt halvings could not restore positivity."""

    def __init__(self, t: float, state: State, last_error: NegativityDetected):
        super().__init__(
            f"run aborted at t={t:.6g} after {MAX_HALVINGS} dt halvings ({last_error})")
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
        if not self.dt_max > 0:
            raise ValueError(f"dt_max must be > 0, got {self.dt_max}")
        for name in ("cfl_advect", "cfl_react"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


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

    Its state-independent parts, h_min and the fixed caps (dt_max and the
    explicit-diffusion cap), are evaluated once at construction; run
    builds one per run and calls it on every state.
    """

    def __init__(self, params: Params, grid: Grid, control: StepControl):
        self.params, self.grid, self.control = params, grid, control
        self.h_min = min(grid.spacing)
        self.fixed_cap = control.dt_max
        if control.scheme == "explicit-euler":
            c = params.coeffs
            diffusivity = max(c.d_u, c.d_v, c.d_w)
            self.fixed_cap = min(self.fixed_cap, control.cfl_advect * self.h_min ** 2
                                 / (2.0 * grid.ndim * diffusivity))

    def __call__(self, state: State) -> float:
        params, control, c = self.params, self.control, self.params.coeffs
        loss_rate = max(float(state.w.max()) + c.decay_u, c.decay_v, c.decay_w)
        dt = min(self.fixed_cap, control.cfl_react / loss_rate)
        _, gmax = _velocity(state, self.grid)
        if gmax > 0.0:
            saturation = (1.0 + float(state.u.min())) ** (-params.alpha)
            speed = 2.0 * self.grid.ndim * gmax * saturation
            dt = min(dt, control.cfl_advect * self.h_min / speed)
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


def _velocity(state: State, grid: Grid) -> tuple[list[np.ndarray], float]:
    """Face differences of v and max |grad v|, computed once per state."""
    cached = state.memo.get("velocity")
    if cached is None or cached[0] is not grid:
        differences = _face_differences(state.v, grid)
        cached = state.memo["velocity"] = (grid, differences, _max_gradient(differences, grid))
    return cached[1], cached[2]


def _rates(state: State, params: Params, grid: Grid, scheme: str) -> np.ndarray:
    """The dt-independent part of a step, stacked like state.fields.

    For explicit-euler this is the whole right-hand side; for imex it is
    the explicitly treated terms.  Memoised on the state, so a dt-halving
    retry only redoes fields + dt * rates.
    """
    key = (params, grid, scheme)
    cached = state.memo.get("rates")
    if cached is not None and cached[0] == key:
        return cached[1]
    c = params.coeffs
    u, v = state.u, state.v
    differences, gmax = _velocity(state, grid)
    conversion = u * state.w  # the identical array enters u and v: exact mass budget
    if scheme == "explicit-euler":
        rates = _laplacian_raw(state.fields, grid)
        diffusivities = (c.d_u, c.d_v, c.d_w)
        if diffusivities != _UNIT:
            rates *= _column(diffusivities, grid.ndim)
        if gmax != 0.0:
            rates[0] -= _donor_cell_divergence(u, differences, grid, params.alpha)
        rates[0] -= conversion
        rates[1] += conversion
        rates[0] += params.kappa
        rates[2] += v if c.production == 1.0 else c.production * v
        decays = (c.decay_u, c.decay_v, c.decay_w)
        rates -= state.fields if decays == _UNIT else _column(decays, grid.ndim) * state.fields
    else:
        rates = np.empty_like(state.fields)
        np.subtract(params.kappa, conversion, out=rates[0])
        if gmax != 0.0:
            rates[0] -= _donor_cell_divergence(u, differences, grid, params.alpha)
        rates[1] = conversion
        np.multiply(c.production, v, out=rates[2])
    state.memo["rates"] = (key, rates)
    return rates


# the default unit coefficients skip their scaling pass, a numpy call per step
_UNIT = (1.0, 1.0, 1.0)


def _column(values: tuple[float, float, float], ndim: int) -> np.ndarray:
    # per-component coefficients shaped to broadcast against (3, *shape)
    return np.reshape(values, (3,) + (1,) * ndim)


def step(state: State, params: Params, grid: Grid, dt: float, control: StepControl) -> State:
    """Advance one step of the selected scheme.

    Raises NegativityDetected when any value of the new state is negative
    or not finite.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    new = _rates(state, params, grid, control.scheme) * dt
    new += state.fields
    if control.scheme == "imex":
        # (1 + dt*decay - dt*d*lap) x = star per field, rescaled onto
        # (I - tau*lap) x = rhs and solved for all three fields in one call
        c = params.coeffs
        denominator = 1.0 + dt * _column((c.decay_u, c.decay_v, c.decay_w), grid.ndim)
        new /= denominator
        new = helmholtz_solve(new, dt * _column((c.d_u, c.d_v, c.d_w), grid.ndim) / denominator,
                              grid)
    # the minimum catches negatives and NaN, the maximum +inf
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


def run(initial: State, params: Params, grid: Grid, control: StepControl,
        t_end: float, monitor_every: float, on_record=None) -> RunResult:
    """Advance to t_end, emitting diagnostics every monitor_every time units.

    The step size is re-evaluated from stable_dt every step and clipped so
    each monitor boundary is hit exactly; records land at t = 0, every
    boundary, and t_end.  Deterministic for identical inputs.  Raises
    UnstableRunError (with the failing time and state) when positivity
    cannot be restored by halving dt.
    """
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
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
    result = RunResult([], initial.copy(), energy_exponent=exponent, baseline=baseline)
    if t_end == 0:
        return result

    state = initial.copy()
    step_size = _StepSize(params, grid, control)
    record = compute_record(state, grid, params, exponent, baseline)
    result.records.append(record)
    if on_record is not None:
        on_record(state, record)

    steps, max_dt = 0, 0.0
    for target in _monitor_targets(t_end, monitor_every):
        cutoff = target - 1e-12 * max(1.0, target)
        while state.t < cutoff:
            dt = min(step_size(state), target - state.t)
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
        state.t = target  # snap off the accumulated roundoff
        record = compute_record(state, grid, params, exponent, baseline)
        result.records.append(record)
        if on_record is not None:
            on_record(state, record)

    result.final_state = state
    result.steps, result.max_dt = steps, max_dt
    return result
