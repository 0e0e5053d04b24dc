"""Built-in verification scenarios behind ``chemovir verify``.

Each suite replays a small, fully embedded experiment and checks the
corresponding provable statement at a pinned tolerance:

mass         exact total-mass identity under explicit-euler reactions
steady       every homogeneous steady state is a fixed point of the imex map
convergence  second-order spatial accuracy on a pure diffusion-decay problem
energy       the quasi-energy plateau for alpha above the threshold

The same scenarios back the acceptance test suite, so CI needs no
external data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid, State, lp_norm
from .model import Params, homogeneous_steady_states, select_energy_exponent
from .monitors import DiagnosticsRecord, energy_plateau_exceedance
from .stepper import StepControl, UnstableRunError, run
from .sweep import initial_condition_preset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def mass_identity_suite() -> list[CheckResult]:
    """Zero initial data, kappa = 1, explicit-euler on 128 cells to t = 5.

    The per-record residual against the continuum identity must stay below
    5 * dt * (kappa |O| + M0), and the final total mass must land within
    1e-3 of 1 - e^-5.
    """
    grid = Grid((128,))
    params = Params(alpha=1.0, kappa=1.0)
    # cfl_advect 0.95 puts the diffusion number at 0.475, still under the
    # 0.5 stability/positivity ceiling, and keeps the runtime budget
    control = StepControl(dt_max=1.0, cfl_advect=0.95, scheme="explicit-euler")
    initial = State(grid.new_field(0.0), grid.new_field(0.0), grid.new_field(0.0))
    result = run(initial, params, grid, control, t_end=5.0, monitor_every=0.25)

    first, final = result.records[0], result.records[-1]  # M0 is first's mass of u + v
    budget = 5.0 * result.max_dt * (params.kappa * grid.volume + first.mass_u + first.mass_v)
    worst = max(abs(r.mass_identity_residual) for r in result.records)
    checks = [CheckResult(
        "mass-identity-residual",
        worst <= budget,
        f"max |residual| = {worst:.3e}, budget 5*dt*(kappa|O|+M0) = {budget:.3e} "
        f"({result.steps} steps)",
    )]
    target = 1.0 - math.exp(-5.0)
    error = abs((final.mass_u + final.mass_v) - target)
    checks.append(CheckResult(
        "mass-identity-final",
        error <= 1e-3,
        f"|mass(5) - (1 - e^-5)| = {error:.3e} (tolerance 1e-3)",
    ))
    return checks


def steady_state_suite() -> list[CheckResult]:
    """Both homogeneous steady states for kappa = 2, (2, 0, 0) and (1, 1, 1),
    must stay put to 1e-10 under imex: the fields and every record column but
    t and u_bound_slack, whose bound relaxes from int(u0) toward kappa|O|."""
    grid = Grid((64,))
    params = Params(alpha=1.0, kappa=2.0)
    states = homogeneous_steady_states(params.kappa)
    initials = [State(*(grid.new_field(value) for value in values)) for values in states]
    results = run(initials, [params] * len(initials), grid, StepControl(scheme="imex"),
                  t_end=10.0, monitor_every=0.25)

    checks = []
    for values, initial, result in zip(states, initials, results):
        if isinstance(result, UnstableRunError):
            raise result  # as a single run would: a numerical abort
        label = "(" + ", ".join(f"{value:g}" for value in values) + ")"
        drifts = {"fields": (float(np.abs(result.final_state.fields - initial.fields).max()),
                             max(1.0, *values))}
        first = result.records[0]
        for column in (f.name for f in fields(DiagnosticsRecord)):
            if column not in ("t", "u_bound_slack"):
                start = getattr(first, column)
                drifts[column] = (max(abs(getattr(r, column) - start) for r in result.records),
                                  max(1.0, abs(start)))
        checks.extend(CheckResult(f"steady-{name} at {label}", drift <= 1e-10 * scale,
                                  f"max drift {drift:.3e} against scale {scale:.3g}")
                      for name, (drift, scale) in drifts.items())
    return checks


def convergence_suite() -> list[CheckResult]:
    """Pure diffusion with decay, 1D: observed L-inf order >= 1.9.

    Initial u = 1 + cos(pi x) (the first Neumann mode shifted nonnegative),
    v = w = 0, kappa = 0; exact solution
    e^-t + e^-(1+pi^2) t cos(pi x).  The explicit scheme ties dt to h^2, so
    the measured order is the spatial one.
    """
    t_end = 0.1
    mu = 1.0 + math.pi ** 2
    errors = []
    cells = (32, 64, 128)
    for n in cells:
        grid = Grid((n,))
        x = grid.cell_centers(0)
        initial = State(1.0 + np.cos(math.pi * x), grid.new_field(0.0), grid.new_field(0.0))
        params = Params(alpha=1.0, kappa=0.0)
        control = StepControl(dt_max=1.0, scheme="explicit-euler")
        result = run(initial, params, grid, control, t_end=t_end, monitor_every=t_end)
        exact = math.exp(-t_end) + math.exp(-mu * t_end) * np.cos(math.pi * x)
        errors.append(lp_norm(result.final_state.u - exact, grid, math.inf))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    detail = ", ".join(
        f"{a}->{b} cells: order {order:.3f}" for a, b, order in zip(cells, cells[1:], orders))
    return [CheckResult("convergence-order", min(orders) >= 1.9, detail)]


def energy_plateau_suite() -> list[CheckResult]:
    """Quasi-energy plateau at alpha = 1 > 3/4 on a 64^2 grid to t = 20.

    The maximum of F over the final 20% of the records must not exceed the
    maximum over the first 80% by more than 1% relative.
    """
    grid = Grid((64, 64))
    params = Params(alpha=1.0, kappa=1.0)
    exponent = float(select_energy_exponent(params.alpha, grid.ndim))
    initial = initial_condition_preset("gaussian-bump-v", grid, params.kappa)
    result = run(initial, params, grid, StepControl(), t_end=20.0, monitor_every=0.2)
    exceedance = energy_plateau_exceedance(result.records)
    return [CheckResult(
        "energy-plateau",
        exceedance <= 0.01,
        f"final-window max exceeds earlier max by {exceedance:+.3e} "
        f"(tolerance 1e-2) with p = {exponent:.4f}",
    )]


SUITES = {
    "mass": mass_identity_suite,
    "steady": steady_state_suite,
    "convergence": convergence_suite,
    "energy": energy_plateau_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
