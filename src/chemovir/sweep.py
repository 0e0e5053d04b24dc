"""Alpha sweeps: run a base scenario across alpha values and seeds.

Rows are independent runs keyed by (alpha, seed), sorted by key.  The rows
are cut once into contiguous ensembles, each advanced as one ensemble run
and reduced to its rows before the next starts (when jobs > 1, the calling
process runs its share beside a pool of worker processes); an ensemble
member equals its single run bit for bit, so the result is identical for
any job count.
Runs whose alpha sits at or below the boundedness threshold for the grid
dimension are still executed, flagged as below-threshold and treated as
exploratory (nothing is proven about them); their energy monitor is
disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import islice, repeat

import numpy as np

from .grid import Grid, State, _quoted, atomic_write, require
from .model import Coefficients, Params, alpha_threshold, select_energy_exponent
from .monitors import _csv_text, classify_boundedness
from .stepper import StepControl, UnstableRunError, _monitor_targets, run

PRESETS = ("steady-infection-free", "gaussian-bump-v", "random-smooth", "constant")

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
    _check_preset(name, constants)
    if name == "steady-infection-free":
        return State(grid.new_field(kappa), grid.new_field(0.0), grid.new_field(0.0))
    if name == "constant":
        return State(grid.new_field(constants[0]), grid.new_field(constants[1]),
                     grid.new_field(constants[2]))
    if name == "gaussian-bump-v":
        offsets = (grid.cell_centers(axis) - grid.lengths[axis] / 2.0 for axis in range(grid.ndim))
        radius_sq = sum((x ** 2 for x in np.ix_(*offsets)), grid.new_field(0.0))
        return State(grid.new_field(kappa + 1.0), np.exp(-50.0 * radius_sq),
                     grid.new_field(0.0))
    # random-smooth
    rng = np.random.default_rng(seed)
    coordinates = [grid.cell_centers(axis) / grid.lengths[axis] for axis in range(grid.ndim)]
    fields = []
    for offset in (1.0, 0.5, 0.25):
        total = grid.new_field(0.0)
        modes = rng.integers(0, 3, size=(3, grid.ndim))
        amplitudes = rng.uniform(-1.0, 1.0, size=3)
        amplitudes *= 0.5 * offset / max(np.abs(amplitudes).sum(), 1e-12)
        for amp, mode in zip(amplitudes, modes):
            term = grid.new_field(1.0)
            for k, x in zip(mode, np.ix_(*coordinates)):
                term = term * np.cos(math.pi * k * x)
            total = total + amp * term
        fields.append(offset + total)
    return State(*fields)


def _check_preset(name: str, constants: tuple[float, float, float]) -> None:
    if name not in PRESETS:
        raise ValueError(f"preset must be one of {PRESETS}, got unknown preset {_quoted(name)}")
    for key, value in zip(("const_u", "const_v", "const_w"), constants):
        require(value >= 0, key, f"{key} >= 0", value)


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """The settings that a simulation and a sweep share, validated.

    ``constants`` feeds the constant preset.  Coefficients checks the
    coefficients; kappa is checked here, so that a bad kappa is refused
    when the spec is built rather than in a run.
    """

    grid: Grid
    kappa: float = 0.0
    preset: str = "gaussian-bump-v"
    t_end: float = 5.0
    monitor_every: float = 0.1
    control: StepControl = field(default_factory=StepControl)
    coeffs: Coefficients = field(default_factory=Coefficients)
    constants: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        _check_preset(self.preset, self.constants)
        require(self.t_end >= 0, "t_end", "t_end >= 0", self.t_end)
        require(self.monitor_every > 0, "monitor_every", "monitor_every > 0",
                self.monitor_every)
        require(self.kappa >= 0, "kappa", "kappa >= 0", self.kappa)

    def params(self, alpha: float) -> Params:
        return Params(alpha=alpha, kappa=self.kappa, coeffs=self.coeffs)

    def initial_state(self, seed: int) -> State:
        return initial_condition_preset(self.preset, self.grid, self.kappa, seed=seed,
                                        constants=self.constants)


@dataclass(frozen=True, kw_only=True)
class SweepSpec(RunSpec):
    """A RunSpec plus the alpha grid and the seeds of the random-smooth preset."""

    alphas: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        require(bool(self.alphas) and all(a >= 0 for a in self.alphas), "alphas",
                "a nonempty list, every alpha >= 0", self.alphas)
        require(bool(self.seeds) and all(s >= 0 for s in self.seeds), "seeds",
                "a nonempty list, every seed >= 0", self.seeds)
        require(self.t_end > 0, "t_end", "t_end > 0", self.t_end)
        targets = islice(_monitor_targets(self.t_end, self.monitor_every), 9)
        require(len(list(targets)) == 9, "monitor_every",
                "at least 10 records per run (t = 0 and 9 monitor targets)", self.monitor_every)


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


# the columns of sweep.csv, one per row field, in field order
SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def to_csv_text(self) -> str:
        return _csv_text(SWEEP_CSV_COLUMNS, self.rows)

    def write_csv(self, path):
        atomic_write(path, self.to_csv_text())


# at most this many cell values (over all members and fields) per ensemble,
# so that a sweep on a large grid does not stack every row in memory at once
_MAX_ENSEMBLE_VALUES = 2 ** 21


def _run_rows(spec: SweepSpec, keys: list[tuple[float, int]]) -> list[SweepRow]:
    """The rows of keys, whose runs advance together as one ensemble."""
    results = run([spec.initial_state(seed) for _, seed in keys],
                  [spec.params(alpha) for alpha, _ in keys], spec.grid, spec.control,
                  spec.t_end, spec.monitor_every)
    return [_row(spec, alpha, seed, result) for (alpha, seed), result in zip(keys, results)]


def _row(spec: SweepSpec, alpha: float, seed: int, result) -> SweepRow:
    # an energy exponent exists exactly above the threshold
    above = Fraction(alpha) > alpha_threshold(spec.grid.ndim)
    p_value = float(select_energy_exponent(alpha, spec.grid.ndim)) if above else math.nan
    if isinstance(result, UnstableRunError):
        return SweepRow(alpha, seed, above, above, p_value, verdict="",
                        peak_sup_u=math.nan, energy_max=math.nan, run_status="aborted")
    verdict = classify_boundedness(result.records)
    energies = [r.energy for r in result.records]
    # NaN energies mean the monitor is off: no admissible exponent, or a
    # coefficient other than 1
    energy_max = math.nan if any(map(math.isnan, energies)) else max(energies)
    return SweepRow(alpha, seed, above, above, p_value, verdict.label,
                    verdict.peak_sup_u, energy_max, run_status="completed")


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Execute one run per (alpha, seed) pair; rows come back sorted by key.

    A row whose run aborts is reported with run_status "aborted" instead
    of failing the whole sweep.  The sorted rows are cut into contiguous
    ensembles of ceil(rows / jobs) rows, fewer when that would exceed
    _MAX_ENSEMBLE_VALUES cell values; each is run and reduced to its rows
    on its own.  With n = min(jobs, ensembles) above one, n - 1 worker
    processes run their share while this process runs every n-th
    ensemble, the first among them, so that no process idles while others
    work.  The rows are byte-identical for any job count.
    """
    require(jobs >= 1, "jobs", "jobs >= 1", jobs)
    keys = sorted((alpha, seed) for alpha in spec.alphas for seed in spec.seeds)
    cap = max(1, _MAX_ENSEMBLE_VALUES // (3 * spec.grid.n_cells))
    size = min(cap, math.ceil(len(keys) / jobs))
    ensembles = [keys[start:start + size] for start in range(0, len(keys), size)]
    processes = min(jobs, len(ensembles))
    if processes == 1:
        return SweepResult([row for ensemble in ensembles for row in _run_rows(spec, ensemble)])
    # imported here, so that a process that never fans out does not load it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(processes - 1) as pool:
        # the workers start on theirs before this process runs its own
        theirs = pool.map(_run_rows, repeat(spec),
                          [ensemble for k, ensemble in enumerate(ensembles) if k % processes])
        mine = iter([_run_rows(spec, ensemble) for ensemble in ensembles[::processes]])
        parts = [next(theirs if k % processes else mine) for k in range(len(ensembles))]
    return SweepResult([row for part in parts for row in part])
