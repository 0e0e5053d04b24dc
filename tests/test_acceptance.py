"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here or in chemovir.verification.
"""

import time
from fractions import Fraction

import numpy as np

from chemovir.discretization import chemotaxis_divergence, laplacian_neumann
from chemovir.grid import Grid, State, lp_norm
from chemovir.model import Coefficients, Params, alpha_threshold
from chemovir.stepper import StepControl, _Plan, _rates, run, step
from chemovir.sweep import SweepSpec, initial_condition_preset, run_sweep
from chemovir.verification import (
    convergence_suite,
    energy_plateau_suite,
    mass_identity_suite,
    steady_state_suite,
)
from oracles import integrate


def report(number, name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def run_checks(number, name, checks, elapsed, budget):
    ok = all(c.passed for c in checks) and elapsed < budget
    detail = "; ".join(c.detail for c in checks) + f" [{elapsed:.2f} s < {budget} s]"
    report(number, name, ok, detail)


def test_criterion_1_threshold_arithmetic():
    expected = {1: Fraction(3, 5), 2: Fraction(3, 4),
                3: Fraction(1, 2) + Fraction(9, 22), 4: Fraction(15, 14)}
    alpha_threshold(1)  # warm any import machinery before timing
    start = time.perf_counter()
    values = {n: alpha_threshold(n) for n in range(1, 9)}
    elapsed = time.perf_counter() - start
    exact_low = all(values[n] == expected[n] for n in range(1, 5))
    exact_high = all(values[n] == Fraction(n, 4) for n in range(5, 9))
    rational = all(isinstance(values[n], Fraction) for n in values)
    report(1, "threshold arithmetic",
           exact_low and exact_high and rational and elapsed < 1e-3,
           f"n=1..4 -> {[str(values[n]) for n in range(1, 5)]}, n=5..8 exact n/4, "
           f"evaluated in {elapsed * 1e6:.0f} us")


def test_criterion_2_mass_identity():
    start = time.perf_counter()
    checks = mass_identity_suite()
    run_checks(2, "mass identity", checks, time.perf_counter() - start, 10.0)


def test_criterion_3_u_mass_bound():
    start = time.perf_counter()
    worst = []
    for cells in ((64,), (32, 32)):
        for kappa in (0.0, 1.0):
            grid = Grid(cells)
            initial = initial_condition_preset("gaussian-bump-v", grid, kappa)
            result = run(initial, Params(alpha=1.0, kappa=kappa), grid, StepControl(),
                         t_end=5.0, monitor_every=0.1)
            # the imex step keeps the mass identity, and so the bound, to roundoff;
            # M0 is the mass of u + v in the record at t = 0
            first = result.records[0]
            budget = 1e-12 * (kappa * grid.volume + first.mass_u + first.mass_v)
            slack = min(r.u_bound_slack for r in result.records)
            residual = max(abs(r.mass_identity_residual) for r in result.records)
            worst.append((grid.ndim, kappa, slack, residual, budget))
    elapsed = time.perf_counter() - start
    passed = all(s >= -b and r <= b for _, _, s, r, b in worst) and elapsed < 60.0
    detail = ", ".join(f"n={n} kappa={k}: min slack {s:+.2e}, max |identity residual| {r:.1e} "
                       f"(budget {b:.1e})" for n, k, s, r, b in worst)
    report(3, "u-mass bound", passed, detail + f" [{elapsed:.2f} s < 60 s]")


def test_criterion_4_steady_state_fixed_point():
    start = time.perf_counter()
    checks = steady_state_suite()
    run_checks(4, "steady-state fixed point", checks, time.perf_counter() - start, 10.0)


def test_criterion_5_convergence_order():
    start = time.perf_counter()
    checks = convergence_suite()
    run_checks(5, "convergence order", checks, time.perf_counter() - start, 30.0)


def test_criterion_6_positivity_campaign():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = Grid((32,))
    retries = 0
    negatives = 0
    for seed in range(200):
        alpha = float(rng.uniform(0.6, 2.0))
        kappa = float(rng.uniform(0.0, 2.0))
        initial = initial_condition_preset("random-smooth", grid, kappa, seed=seed)
        result = run(initial, Params(alpha=alpha, kappa=kappa), grid, StepControl(),
                     t_end=1.0, monitor_every=0.1)
        retries += result.negativity_retries
        final = result.final_state
        if min(float(final.u.min()), float(final.v.min()), float(final.w.min())) < 0:
            negatives += 1
    elapsed = time.perf_counter() - start
    report(6, "positivity campaign",
           negatives == 0 and elapsed < 300.0,
           f"200 runs, {negatives} negative states, {retries} dt-halving retries "
           f"logged [{elapsed:.1f} s < 300 s]")


def test_criterion_7_quasi_energy_plateau():
    start = time.perf_counter()
    checks = energy_plateau_suite()
    run_checks(7, "quasi-energy plateau", checks, time.perf_counter() - start, 600.0)


def test_criterion_8_theorem_consistency_sweep():
    start = time.perf_counter()
    spec = SweepSpec(alphas=(0.8, 1.0, 1.5, 2.0), grid=Grid((32, 32)), kappa=2.0,
                     preset="gaussian-bump-v", t_end=40.0, monitor_every=0.2)
    result = run_sweep(spec)
    elapsed = time.perf_counter() - start
    bad = [row for row in result.rows
           if row.above_threshold and not (row.run_status == "completed"
                                           and row.verdict == "bounded-plateau")]
    above = sum(1 for row in result.rows if row.above_threshold)
    report(8, "theorem-consistency sweep",
           above == len(result.rows) and not bad and elapsed < 900.0,
           f"{above}/{len(result.rows)} rows above threshold, "
           f"{len(result.rows) - len(bad)} bounded-plateau, verdicts "
           f"{[row.verdict for row in result.rows]} [{elapsed:.1f} s < 900 s]")


def test_criterion_9_conservation_micro_properties():
    start = time.perf_counter()
    shapes = {1: (17,), 2: (7, 5), 3: (5, 4, 3)}
    worst_ratio = 0.0
    for ndim, shape in shapes.items():
        rng = np.random.default_rng(90 + ndim)
        grid = Grid(shape)
        for _ in range(100):
            f = rng.normal(size=shape)
            u = rng.uniform(0, 2, shape)
            v = rng.normal(size=shape)
            alpha = float(rng.uniform(0, 2))
            budget_f = 1e-12 * lp_norm(f, grid, 1) * grid.n_cells
            budget_u = 1e-12 * lp_norm(u, grid, 1) * grid.n_cells + 1e-300
            lap_total = abs(integrate(laplacian_neumann(f, grid), grid))
            chem_total = abs(integrate(chemotaxis_divergence(u, v, grid, alpha), grid))
            assert lap_total <= budget_f
            assert chem_total <= budget_u
            worst_ratio = max(worst_ratio, lap_total / budget_f, chem_total / budget_u)
    elapsed = time.perf_counter() - start
    report(9, "conservation micro-properties",
           elapsed < 30.0,
           f"300 random fields conserved; worst defect at {worst_ratio:.1%} of the "
           f"1e-12*|f|_1*cells budget [{elapsed:.2f} s < 30 s]")


def test_criterion_9_fused_rates_conserve_mass():
    # the step's own rates, beside the references above: diffusion (under
    # explicit-euler) and chemotaxis integrate to zero in them, so their
    # totals are those of the kinetics, written out here; each ensemble's
    # rates are checked on a fresh plan, then on the plan a step has used,
    # whose imex solve has written over the bordered arrays' zero faces
    start = time.perf_counter()
    shapes = {1: (17,), 2: (7, 5), 3: (5, 4, 3), 4: (4, 3, 3, 3), 5: (3, 3, 3, 3, 3)}
    mixed = Coefficients(d_u=0.6, d_v=1.7, d_w=0.4, decay_u=1.3, decay_v=0.8, decay_w=2.1,
                         production=1.9)
    worst_ratio, members, ensembles = 0.0, 3, 0
    for ndim, shape in shapes.items():
        rng = np.random.default_rng(190 + ndim)
        grid = Grid(shape)
        for scheme in ("imex", "explicit-euler"):
            control = StepControl(scheme=scheme)
            for c in (Coefficients(), mixed):
                for _ in range(10):
                    initial = State.from_fields(rng.uniform(0, 2, (members, 3) + shape),
                                                [0.0] * members)
                    kappa = float(rng.uniform(0, 2))
                    params = tuple(Params(alpha=float(alpha), kappa=kappa, coeffs=c)
                                   for alpha in rng.uniform(0, 2, members))
                    plan = initial.memo["plan"] = _Plan(params, grid, control,
                                                        initial.fields.shape)
                    stepped = step(initial, params, grid, [1e-4] * members, control)
                    for state in (initial, stepped):
                        rates = _rates(state, plan)
                        u, v, w = state.fields[:, 0], state.fields[:, 1], state.fields[:, 2]
                        totals = ((rates[:, 0] + rates[:, 1],
                                   kappa - c.decay_u * u - c.decay_v * v),
                                  (rates[:, 2], c.production * v - c.decay_w * w))
                        for k in range(members):
                            for got, want in totals:
                                budget = 1e-12 * (lp_norm(got[k], grid, 1)
                                                  + lp_norm(want[k], grid, 1)) * grid.n_cells
                                defect = abs(integrate(got[k], grid)
                                             - integrate(want[k], grid))
                                assert defect <= budget, (shape, scheme, c)
                                worst_ratio = max(worst_ratio, defect / budget)
                    ensembles += 1
    elapsed = time.perf_counter() - start
    report(9, "fused rates conservation",
           elapsed < 30.0,
           f"{ensembles} random {members}-member ensembles in 1D-5D under both schemes, "
           f"unit and mixed coefficients, before and after a step; worst defect at "
           f"{worst_ratio:.1e} of the 1e-12*(|rates|_1 + |kinetics|_1)*cells budget "
           f"[{elapsed:.2f} s < 30 s]")
