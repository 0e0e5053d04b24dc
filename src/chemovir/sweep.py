"""Alpha sweeps: run a base scenario across alpha values and seeds.

Rows are independent runs keyed by (alpha, seed); execution may fan out
over processes, but aggregation sorts by key so the result is identical
for any job count.  Runs whose alpha sits at or below the boundedness
threshold for the grid dimension are still executed, flagged as
below-threshold and treated as exploratory (nothing is proven about
them); their energy monitor is disabled.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import Grid, State, atomic_write_text
from .model import (Coefficients, ExponentInfeasibleError, Params, alpha_threshold,
                    select_energy_exponent)
from .monitors import classify_boundedness
from .stepper import StepControl, UnstableRunError, run

PRESETS = ("steady-infection-free", "gaussian-bump-v", "random-smooth", "constant")

SWEEP_CSV_COLUMNS = (
    "alpha", "seed", "above_threshold", "p_feasible", "p_value", "verdict",
    "peak_sup_u", "energy_max", "run_status",
)


def initial_condition_preset(name: str, grid: Grid, kappa: float, seed: int = 0,
                             constants: tuple[float, float, float] = (1.0, 0.0, 0.0)) -> State:
    """Build nonnegative, smooth initial data.

    steady-infection-free: u = kappa, v = w = 0.
    constant:              (u, v, w) = constants.
    gaussian-bump-v:       v = exp(-50 sum_k (x_k - L_k/2)^2), u = kappa + 1, w = 0.
    random-smooth:         per field, a positive offset plus a short cosine
                           series with |amplitudes| summing to half the
                           offset, so the field stays >= offset/2.
    """
    if name == "steady-infection-free":
        return State(grid.new_field(kappa), grid.new_field(0.0), grid.new_field(0.0))
    if name == "constant":
        if any(value < 0 for value in constants):
            raise ValueError(f"constant preset needs nonnegative values, got {constants}")
        return State(grid.new_field(constants[0]), grid.new_field(constants[1]),
                     grid.new_field(constants[2]))
    if name == "gaussian-bump-v":
        radius_sq = grid.new_field(0.0)
        for axis in range(grid.ndim):
            x = grid.cell_centers(axis) - grid.lengths[axis] / 2.0
            shape = [1] * grid.ndim
            shape[axis] = -1
            radius_sq = radius_sq + (x ** 2).reshape(shape)
        return State(grid.new_field(kappa + 1.0), np.exp(-50.0 * radius_sq),
                     grid.new_field(0.0))
    if name == "random-smooth":
        rng = np.random.default_rng(seed)
        fields = []
        for offset in (1.0, 0.5, 0.25):
            total = grid.new_field(0.0)
            modes = rng.integers(0, 3, size=(3, grid.ndim))
            amplitudes = rng.uniform(-1.0, 1.0, size=3)
            amplitudes *= 0.5 * offset / max(np.abs(amplitudes).sum(), 1e-12)
            for amp, mode in zip(amplitudes, modes):
                term = grid.new_field(1.0)
                for axis in range(grid.ndim):
                    x = grid.cell_centers(axis) / grid.lengths[axis]
                    shape = [1] * grid.ndim
                    shape[axis] = -1
                    term = term * np.cos(math.pi * mode[axis] * x).reshape(shape)
                total = total + amp * term
            fields.append(offset + total)
        return State(*fields)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")


@dataclass(frozen=True)
class SweepSpec:
    """Alpha grid plus the shared base scenario."""

    alphas: tuple[float, ...]
    grid: Grid
    kappa: float = 0.0
    seeds: tuple[int, ...] = (0,)
    preset: str = "gaussian-bump-v"
    t_end: float = 10.0
    monitor_every: float = 0.1
    control: StepControl = field(default_factory=StepControl)
    coeffs: Coefficients = field(default_factory=Coefficients)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.alphas:
            raise ValueError("alpha list must be nonempty")
        if any(a < 0 for a in self.alphas):
            raise ValueError("all alpha values must be >= 0")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.monitor_every <= 0 or self.t_end / self.monitor_every < 9:
            raise ValueError("cadence must produce at least 10 records per run")


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    seed: int
    above_threshold: bool
    p_feasible: bool
    p_value: float
    verdict: str
    peak_sup_u: float
    energy_max: float
    run_status: str


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def to_csv_text(self) -> str:
        lines = [",".join(SWEEP_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join([
                repr(row.alpha), str(row.seed),
                "true" if row.above_threshold else "false",
                "true" if row.p_feasible else "false",
                repr(row.p_value), row.verdict,
                repr(row.peak_sup_u), repr(row.energy_max), row.run_status,
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.to_csv_text())


def _run_row(spec: SweepSpec, alpha: float, seed: int) -> SweepRow:
    above = Fraction(alpha) > alpha_threshold(spec.grid.ndim)
    try:
        p_value = float(select_energy_exponent(alpha, spec.grid.ndim).p)
        feasible = True
    except ExponentInfeasibleError:
        p_value = math.nan
        feasible = False
    params = Params(alpha=alpha, kappa=spec.kappa, coeffs=spec.coeffs)
    initial = initial_condition_preset(spec.preset, spec.grid, spec.kappa, seed=seed)
    try:
        result = run(initial, params, spec.grid, spec.control, spec.t_end, spec.monitor_every)
    except UnstableRunError:
        return SweepRow(alpha, seed, above, feasible, p_value, verdict="",
                        peak_sup_u=math.nan, energy_max=math.nan, run_status="aborted")
    verdict = classify_boundedness(result.records)
    energies = [r.energy for r in result.records]
    energy_max = math.nan if feasible is False else max(energies)
    return SweepRow(alpha, seed, above, feasible, p_value, verdict.label,
                    verdict.peak_sup_u, energy_max, run_status="completed")


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Execute one run per (alpha, seed) pair; rows come back sorted by key.

    A row whose run aborts is reported with run_status "aborted" instead
    of failing the whole sweep.  jobs > 1 fans rows out over processes;
    the rows are byte-identical to a sequential execution.
    """
    keys = sorted((alpha, seed) for alpha in spec.alphas for seed in spec.seeds)
    if jobs > 1 and len(keys) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_row, [spec] * len(keys),
                                 [k[0] for k in keys], [k[1] for k in keys]))
    else:
        rows = [_run_row(spec, alpha, seed) for alpha, seed in keys]
    rows.sort(key=lambda row: (row.alpha, row.seed))
    return SweepResult(rows)
