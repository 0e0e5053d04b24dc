"""The three workloads: inputs made from the seed, the timed calls, the checks.

Each workload builds its inputs in ``__init__`` (part of set-up), calls
chemovir's entry point in ``execute`` (the timed part) and checks the
outputs in ``check`` against quantities the benchmark computes itself or
properties the method must have, never against stored output.  Entry
points are read as module attributes at call time, so that the traced run
reaches them through its wrappers.
"""

from __future__ import annotations

import contextlib
import glob
import math
import os
import shutil
import sys
import time
from fractions import Fraction

import numpy as np

from chemovir import Grid, Params, State, StepControl, cli, grid as grid_module
from chemovir import initial_condition_preset, stable_dt, stepper, sweep
from chemovir.discretization import chemotaxis_divergence, laplacian_neumann

# the modules whose attributes spans.PATCHES replaces
MODULES = {"stepper": stepper, "sweep": sweep, "cli": cli, "grid": grid_module}

DIAGNOSTICS_HEADER = ("t,mass_u,mass_v,mass_w,sup_u,sup_v,sup_w,lp_u,grad_v_sq,grad_w_sq,"
                      "energy,mass_identity_residual,u_bound_slack,v_bound_slack")


def threshold(n: int) -> Fraction:
    """The paper's alpha threshold 1/2 + n^2/(6n+4), in exact rationals."""
    return Fraction(1, 2) + Fraction(n * n, 6 * n + 4)


def mass_identity_rhs(t: float, mass0: float, kappa: float, volume: float) -> float:
    """e^{-t} M0 + kappa |O| (1 - e^{-t}), the exact total mass of u + v."""
    decay = math.exp(-t)
    return decay * mass0 + kappa * volume * (1.0 - decay)


def mirror_defect(values: np.ndarray) -> float:
    """Largest change under mirroring any one axis, relative to max |values|."""
    scale = float(np.abs(values).max())
    worst = max(float(np.abs(values - np.flip(values, axis)).max())
                for axis in range(values.ndim))
    return worst / scale if scale > 0 else worst


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Outcome:
    """What the checks of one round found."""

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []
        self.snapshot_mb = 0.0

    def require(self, condition: bool, message: str):
        if not condition:
            self.problems.append(message)


class Workload:
    """What every workload defines; see the module docstring."""

    name: str
    attempted: int  # operations per round
    workers = 0  # worker processes the program starts

    def prepare(self):
        """Untimed work before each round."""

    def observers(self) -> dict:
        """Checks to run inside the traced run, keyed like spans.PATCHES."""
        return {}


class Explicit1D(Workload):
    """One explicit-Euler run on 128 cells, with the mass scenario's settings.

    The diffusion cap holds dt at 0.95 h^2 / 2 = 2.9e-5, so t_end = 0.5
    takes 17,248 steps of a few tens of µs: per-step call overhead in
    stepper and discretization, and no implicit solve.  A run lasts about
    a second, so that a run of the benchmark holds many of them.
    """

    name = "explicit-1d"
    attempted = 1
    CELLS, T_END, MONITOR_EVERY = 128, 0.5, 0.25
    ALPHA, KAPPA, CFL = 1.0, 1.0, 0.95

    def __init__(self, seed: int, workdir: str):
        # the initial data is the centred bump; no input depends on the seed
        self.grid = Grid((self.CELLS,))
        self.params = Params(alpha=self.ALPHA, kappa=self.KAPPA)
        self.control = StepControl(dt_max=1.0, cfl_advect=self.CFL, scheme="explicit-euler")
        self.initial = initial_condition_preset("gaussian-bump-v", self.grid, self.KAPPA)
        self.h = 1.0 / self.CELLS
        self._recurrence: list[float] = []

    def prepare(self):
        self._recurrence = []

    def execute(self):
        try:
            return stepper.run(self.initial, self.params, self.grid, self.control,
                               self.T_END, self.MONITOR_EVERY)
        except Exception as error:  # counted as a failed operation
            return error

    def observers(self) -> dict:
        """In the traced run, check M_{k+1} = M_k + dt (kappa|O| - M_k) at every step."""
        kappa_volume = self.KAPPA * 1.0  # the domain is the unit interval

        def observe_step(args, new_state):
            state, dt = args[0], args[3]
            before = self.h * (float(state.u.sum()) + float(state.v.sum()))
            after = self.h * (float(new_state.u.sum()) + float(new_state.v.sum()))
            predicted = before + dt * (kappa_volume - before)
            self._recurrence.append(abs(after - predicted) / max(1.0, abs(after)))

        return {("stepper", "step"): observe_step}

    def check(self, result, traced: bool) -> Outcome:
        outcome = Outcome()
        if isinstance(result, Exception):
            outcome.failed = 1
            outcome.warnings.append(f"run failed: {result!r}")
            return outcome
        h, kappa, volume = self.h, self.KAPPA, 1.0
        u0, v0 = self.initial.u, self.initial.v
        mass0 = h * (float(u0.sum()) + float(v0.sum()))
        mass_u0 = h * float(u0.sum())
        diffusion_cap = self.CFL * h * h / 2.0
        outcome.require(0.0 < result.max_dt <= diffusion_cap,
                        f"max_dt {result.max_dt!r} outside (0, {diffusion_cap!r}]")
        budget = 5.0 * result.max_dt * (kappa * volume + mass0)
        times = [k * self.MONITOR_EVERY for k in range(math.ceil(self.T_END / self.MONITOR_EVERY))]
        times.append(self.T_END)
        outcome.require(len(result.records) == len(times)
                        and all(abs(r.t - t) <= 1e-12 for r, t in zip(result.records, times)),
                        f"records at {[r.t for r in result.records]}, expected {times}")
        for record in result.records:
            residual = record.mass_u + record.mass_v - mass_identity_rhs(
                record.t, mass0, kappa, volume)
            outcome.require(abs(residual) <= budget,
                            f"mass residual {residual:.3e} at t={record.t} over {budget:.3e}")
            slack = mass_identity_rhs(record.t, mass_u0, kappa, volume) - record.mass_u
            outcome.require(slack >= -1e-3, f"u-mass bound slack {slack:.3e} at t={record.t}")
        final = result.final_state
        fields = final.fields
        outcome.require(bool(np.isfinite(fields).all()) and float(fields.min()) >= 0.0,
                        "final state is not finite and nonnegative")
        outcome.require(final.t == self.T_END, f"final state at t={final.t}, not {self.T_END}")
        defect = mirror_defect(final.u)
        outcome.require(defect <= 1e-10, f"final u mirror defect {defect:.3e}")
        last = result.records[-1]
        final_mass = h * (float(final.u.sum()) + float(final.v.sum()))
        outcome.require(relative(final_mass, last.mass_u + last.mass_v) <= 1e-12,
                        f"final state mass {final_mass!r} differs from the last record")
        if traced:
            if len(self._recurrence) != result.steps:
                outcome.warnings.append(f"observed {len(self._recurrence)} steps of "
                                        f"{result.steps}; step is not called through stepper.step")
            worst = max(self._recurrence, default=0.0)
            outcome.require(worst <= 1e-12, f"explicit mass recurrence defect {worst:.3e}")
        return outcome

    def probe_inputs(self, result):
        states = [self.initial]
        if not isinstance(result, Exception):
            states.append(result.final_state)
        return [(state, self.params, self.grid, self.control) for state in states]


class Sweep1D(Workload):
    """run_sweep with two workers: 8 alphas around 3/5 times 4 random-smooth seeds.

    Many short IMEX runs on 32 cells: per-run set-up, the record cadence,
    the classifier and the process fan-out.  kappa = 2 because at kappa = 1
    the two homogeneous steady states coincide and rows stay inconclusive
    at t = 10.
    """

    name = "sweep-1d"
    workers = 2
    # 0.6 is the float just below 3/5, so two alphas sit at or below it
    ALPHAS = (0.5, 0.6, 0.65, 0.7, 0.8, 1.0, 1.5, 2.0)
    SEEDS = 4
    attempted = len(ALPHAS) * SEEDS
    CELLS, KAPPA, T_END, MONITOR_EVERY = 32, 2.0, 10.0, 0.1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed % 2 ** 64)
        seeds = sorted(int(s) for s in rng.choice(2 ** 31, size=self.SEEDS, replace=False))
        self.spec = sweep.SweepSpec(alphas=self.ALPHAS, grid=Grid((self.CELLS,)),
                                    kappa=self.KAPPA, seeds=seeds, preset="random-smooth",
                                    t_end=self.T_END, monitor_every=self.MONITOR_EVERY)

    def execute(self):
        try:
            return sweep.run_sweep(self.spec, jobs=self.workers)
        except Exception as error:  # every row counts as failed
            return error

    def check(self, result, traced: bool) -> Outcome:
        outcome = Outcome()
        if isinstance(result, Exception):
            outcome.failed = self.attempted
            outcome.warnings.append(f"run_sweep failed: {result!r}")
            return outcome
        rows = result.rows
        keys = sorted((a, s) for a in self.spec.alphas for s in self.spec.seeds)
        outcome.require([(r.alpha, r.seed) for r in rows] == keys,
                        "rows are not one per (alpha, seed), sorted by key")
        bound = threshold(1)
        for row in rows:
            if row.run_status != "completed":
                outcome.failed += 1
                outcome.warnings.append(f"row {row.alpha}, {row.seed}: {row.run_status}")
                continue
            above = Fraction(row.alpha) > bound
            where = f"row alpha={row.alpha!r} seed={row.seed}"
            outcome.require(row.above_threshold == above,
                            f"{where}: above_threshold {row.above_threshold}, expected {above}")
            if above:
                outcome.require(row.verdict == "bounded-plateau",
                                f"{where}: verdict {row.verdict} above the threshold")
                outcome.require(row.p_feasible and math.isfinite(row.energy_max),
                                f"{where}: no energy exponent above the threshold")
            else:
                outcome.require(not row.p_feasible and math.isnan(row.energy_max),
                                f"{where}: energy monitored at or below the threshold")
            outcome.require(math.isfinite(row.peak_sup_u) and row.peak_sup_u > 0,
                            f"{where}: peak_sup_u {row.peak_sup_u!r}")
        outcome.failed += max(0, self.attempted - len(rows))
        return outcome

    def probe_inputs(self, result):
        # the rows ran in the workers; probe their initial states
        spec = self.spec
        params = Params(alpha=1.0, kappa=spec.kappa)
        return [(initial_condition_preset(spec.preset, spec.grid, spec.kappa, seed=s),
                 params, spec.grid, spec.control) for s in spec.seeds]


class Simulate3D(Workload):
    """``chemovir simulate`` through cli.main on a 40x32x24 grid, then read-back.

    The implicit solve dominates on these arrays, and a snapshot at every
    record writes about 13 MB of text that is read back.  The unequal axes
    make an axis mix-up in an operator or a transform visible.
    """

    name = "simulate-3d"
    CELLS, T_END, EVERY, DT_MAX = (40, 32, 24), 0.3, 0.05, 0.01
    ALPHA, KAPPA = 1.5, 1.0
    # one snapshot per record after t = 0, plus final_state.cvf
    SNAPSHOTS = round(T_END / EVERY) + 1
    attempted = 1 + SNAPSHOTS

    def __init__(self, seed: int, workdir: str):
        # the initial data is the centred bump; no input depends on the seed
        self.out_dir = os.path.join(workdir, "simulate")
        self.config_path = os.path.join(workdir, "simulate.cfg")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w") as handle:
            handle.write(self.config_text())

    def config_text(self) -> str:
        cells = ", ".join(str(n) for n in self.CELLS)
        return (f"[model]\nalpha = {self.ALPHA}\nkappa = {self.KAPPA}\npreset = gaussian-bump-v\n"
                f"[grid]\nndim = 3\ncells = {cells}\nlengths = 1.0\n"
                f"[stepper]\nscheme = imex\ndt_max = {self.DT_MAX}\nt_end = {self.T_END}\n"
                f"[monitors]\nmonitor_every = {self.EVERY}\nsnapshot_every = {self.EVERY}\n"
                f"out_dir = {self.out_dir}\n")

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def execute(self):
        try:
            # the summary line goes to stderr; stdout ends with the result
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.main(["simulate", "--config", self.config_path,
                                   "--out", self.out_dir])
        except Exception as error:
            status = error
        snapshots = {}
        for path in sorted(glob.glob(os.path.join(self.out_dir, "*.cvf"))):
            try:
                snapshots[os.path.basename(path)] = grid_module.read_snapshot(path)
            except Exception as error:
                snapshots[os.path.basename(path)] = error
        return status, snapshots

    def expected_initial(self):
        """Cell volume and the u, v masses of gaussian-bump-v, computed here."""
        h = [1.0 / n for n in self.CELLS]
        centres = np.meshgrid(*[(np.arange(n) + 0.5) * hk - 0.5 for n, hk in zip(self.CELLS, h)],
                              indexing="ij")
        cell = math.prod(h)
        bump = np.exp(-50.0 * sum(x * x for x in centres))
        return cell, (self.KAPPA + 1.0) * bump.size * cell, cell * float(bump.sum())

    def read_diagnostics(self, outcome: Outcome):
        path = os.path.join(self.out_dir, "diagnostics.csv")
        with open(path) as handle:
            lines = handle.read().splitlines()
        outcome.require(lines[0] == DIAGNOSTICS_HEADER, f"diagnostics header {lines[0]!r}")
        columns = lines[0].split(",")
        return [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:] if line]

    def check(self, result, traced: bool) -> Outcome:
        outcome = Outcome()
        status, snapshots = result
        if status != 0:
            outcome.failed = self.attempted
            outcome.warnings.append(f"simulate returned {status!r}")
            return outcome
        read = {name: value for name, value in snapshots.items()
                if not isinstance(value, Exception)}
        outcome.failed = max(0, self.SNAPSHOTS - len(read))
        for name, value in snapshots.items():
            if isinstance(value, Exception):
                outcome.warnings.append(f"reading {name} failed: {value!r}")
        outcome.require(len(snapshots) == self.SNAPSHOTS,
                        f"{len(snapshots)} snapshots written, expected {self.SNAPSHOTS}")
        outcome.snapshot_mb = sum(os.path.getsize(os.path.join(self.out_dir, name))
                                  for name in snapshots) / 1e6

        rows = self.read_diagnostics(outcome)
        cell, mass_u0, mass_v0 = self.expected_initial()
        volume, mass0 = 1.0, mass_u0 + mass_v0
        outcome.require(relative(rows[0]["mass_u"], mass_u0) <= 1e-12
                        and relative(rows[0]["mass_v"], mass_v0) <= 1e-12
                        and rows[0]["mass_w"] == 0.0, "initial masses differ from the bump's")
        budget = 5.0 * self.DT_MAX * (self.KAPPA * volume + mass0)
        for row in rows:
            residual = row["mass_u"] + row["mass_v"] - mass_identity_rhs(
                row["t"], mass0, self.KAPPA, volume)
            outcome.require(abs(residual) <= budget,
                            f"mass residual {residual:.3e} at t={row['t']} over {budget:.3e}")

        final = read.get("final_state.cvf")
        outcome.require(final is not None and final[0].t == self.T_END,
                        "final_state.cvf is missing or not at t_end")
        for name, (state, grid) in read.items():
            fields = state.fields
            outcome.require(grid.shape == self.CELLS and grid.lengths == (1.0, 1.0, 1.0),
                            f"{name}: grid {grid.shape} {grid.lengths}")
            outcome.require(bool(np.isfinite(fields).all()) and float(fields.min()) >= 0.0,
                            f"{name}: not finite and nonnegative")
            matches = [row for row in rows if abs(row["t"] - state.t) <= 1e-12]
            outcome.require(len(matches) == 1, f"{name}: no diagnostics row at t={state.t}")
            for row in matches:
                for label, values in zip("uvw", fields):
                    mass, listed = cell * float(values.sum()), row[f"mass_{label}"]
                    outcome.require(relative(mass, listed) <= 1e-12,
                                    f"{name}: mass_{label} {mass!r} against {listed!r}")
            defect = mirror_defect(state.u)
            outcome.require(defect <= 1e-10, f"{name}: u mirror defect {defect:.3e}")
            spread = anisotropy(state.v)
            outcome.require(spread <= 0.1,
                            f"{name}: v spreads unevenly over the axes ({spread:.3f})")
        return outcome

    def probe_inputs(self, result):
        _, snapshots = result
        params = Params(alpha=self.ALPHA, kappa=self.KAPPA)
        control = StepControl(dt_max=self.DT_MAX)
        return [(state, params, grid, control) for state, grid in
                (value for value in snapshots.values() if not isinstance(value, Exception))]


def anisotropy(values: np.ndarray) -> float:
    """How unevenly a field centred in the unit box has spread along each axis.

    Per axis, the second moment about the centre less that of a uniform
    field on the same cells, 1/12 (1 - 1/n^2).  The bump problem is
    isotropic, so on a consistent discretisation these agree across axes
    up to discretisation error; the result is their range over the
    largest magnitude.
    """
    total = float(values.sum())
    excess = []
    for axis, n in enumerate(values.shape):
        x = (np.arange(n) + 0.5) / n - 0.5
        shape = [1] * values.ndim
        shape[axis] = n
        moment = float((values * (x * x).reshape(shape)).sum()) / total
        excess.append(moment - (1.0 - 1.0 / n ** 2) / 12.0)
    largest = max(abs(e) for e in excess)
    return (max(excess) - min(excess)) / largest if largest > 0 else 0.0


WORKLOADS = {w.name: w for w in (Explicit1D, Sweep1D, Simulate3D)}


def _per_call_us(function, make_args, budget_s: float) -> float:
    # batches double until the calls have run for budget_s; arguments are
    # built before each batch, outside the timed loop
    calls, elapsed = 0, 0.0
    while elapsed < budget_s:
        batch = [make_args() for _ in range(max(1, calls))]
        start = time.perf_counter()
        for args in batch:
            function(*args)
        elapsed += time.perf_counter() - start
        calls += len(batch)
    return elapsed / calls * 1e6


# probed kernels and their arguments from (state, params, grid, control);
# stable_dt memoises on its state, so each call gets a fresh State over the
# same read-only array
KERNELS = (
    ("stepper.stable_dt", stable_dt,
     lambda state, params, grid, control: (State.from_fields(state.fields, state.t),
                                           params, grid, control)),
    ("discretization.laplacian_neumann", laplacian_neumann,
     lambda state, params, grid, control: (state.u, grid)),
    ("discretization.chemotaxis_divergence", chemotaxis_divergence,
     lambda state, params, grid, control: (state.u, state.v, grid, params.alpha)),
)


def probe_kernels(inputs, budget_s: float = 0.01) -> dict:
    """µs per call of each KERNELS function: the median over the probe states.

    Each function runs on each state for at least ``budget_s``.
    """
    values = {name: [] for name, _, _ in KERNELS}
    for item in inputs:
        for name, function, arguments in KERNELS:
            values[name].append(_per_call_us(function, lambda: arguments(*item), budget_s))
    return {f"{name}.us_per_call": float(np.median(v)) if v else 0.0 for name, v in values.items()}
