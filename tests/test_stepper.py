import math
import tracemalloc

import numpy as np
import pytest

import chemovir.grid as grid_module
import chemovir.monitors as monitors_module
import chemovir.stepper as stepper_module
from chemovir.discretization import chemotaxis_divergence, helmholtz_solve, laplacian_neumann
from chemovir.grid import Grid, State
from chemovir.model import Coefficients, Params
from chemovir.monitors import compute_record
from chemovir.stepper import (
    NegativityDetected,
    StepControl,
    UnstableRunError,
    run,
    stable_dt,
    step,
)
from chemovir.sweep import initial_condition_preset
from oracles import integrate


def constant_state(grid, u, v, w):
    return State(grid.new_field(u), grid.new_field(v), grid.new_field(w))


def single_rates(state, params, grid, scheme):
    """stepper._rates of a single state, stepped as the ensemble of one member."""
    member = State.from_fields(state.fields[None], [state.t])
    plan = stepper_module._Plan((params,), grid, StepControl(scheme=scheme), member.fields.shape)
    return stepper_module._rates(member, plan)[0]


class TestStepControl:
    def test_defaults(self):
        control = StepControl()
        assert control.scheme == "imex"
        assert control.cfl_advect == 0.4
        assert stepper_module._CFL_REACT == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"dt_max": 0.0}, {"cfl_advect": 1.0},
        {"scheme": "rk4"}, {"dt_max": math.inf}, {"cfl_advect": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepControl(**kwargs)


class TestStableDt:
    def test_constant_state_reaction_cap(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=1.0)
        control = StepControl(dt_max=5.0)
        state = constant_state(grid, 1.0, 1.0, 3.0)
        # zero velocity: only dt_max and the reaction cap remain
        assert stable_dt(state, params, grid, control) == pytest.approx(0.9 / 4.0, rel=1e-14)

    def test_w_zero_reaction_cap_is_cfl(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=0.0)
        control = StepControl(dt_max=5.0)
        state = constant_state(grid, 1.0, 0.0, 0.0)
        assert stable_dt(state, params, grid, control) == pytest.approx(0.9, rel=1e-14)

    def test_explicit_adds_diffusion_cap(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=0.0)
        control = StepControl(dt_max=5.0, scheme="explicit-euler")
        state = constant_state(grid, 1.0, 0.0, 0.0)
        expected = 0.4 * grid.spacing[0] ** 2 / 2.0
        assert stable_dt(state, params, grid, control) == pytest.approx(expected, rel=1e-14)

    def test_doubling_resolution_halves_advective_cap(self):
        params = Params(alpha=1.0, kappa=0.0)
        control = StepControl(dt_max=100.0)
        caps = []
        for cells in (16, 32):
            grid = Grid((cells,))
            v = 100.0 * grid.cell_centers(0)  # strong linear signal
            state = State(grid.new_field(1.0), v, grid.new_field(0.0))
            caps.append(stable_dt(state, params, grid, control))
        assert caps[1] == pytest.approx(0.5 * caps[0], rel=1e-12)

    def test_positive_even_for_empty_dynamics(self):
        grid = Grid((8,))
        state = constant_state(grid, 0.0, 0.0, 0.0)
        dt = stable_dt(state, Params(alpha=0.0, kappa=0.0), grid, StepControl())
        assert dt > 0

    @pytest.mark.parametrize("kappa", [1e200, 1e300])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_underflowing_damping_leaves_no_advective_cap(self, kappa, scheme):
        # (1 + min u)^-2 underflows to 0: phi(u) = 0 in every cell, the flux
        # is exactly 0, and dt is that of the same state with a constant v
        grid, params, control = Grid((16,)), Params(alpha=2.0, kappa=kappa), StepControl(
            scheme=scheme)
        state = initial_condition_preset("gaussian-bump-v", grid, kappa)
        assert (1.0 + state.u.min()) ** -2.0 == 0.0 and float(state.v.max()) > 0.0
        flat = State(state.u, grid.new_field(0.0), state.w)
        assert stable_dt(state, params, grid, control) == stable_dt(flat, params, grid, control)
        with np.errstate(over="ignore"):  # (1 + u)^2 is inf in every cell
            assert not chemotaxis_divergence(state.u, state.v, grid, 2.0).any()
            step(state, params, grid, stable_dt(state, params, grid, control), control)


class TestStepSizes:
    """_Plan.step_sizes against the step-size formula, written out."""

    @staticmethod
    def formula(fields, times, params, grid, control, until):
        # every cap at every step, max |grad v| included
        c, h_min, faces = params[0].coeffs, min(grid.spacing), 2.0 * grid.ndim
        fixed = control.dt_max
        if control.scheme == "explicit-euler":
            fixed = min(fixed, control.cfl_advect * h_min ** 2
                        / (2.0 * grid.ndim * max(c.d_u, c.d_v, c.d_w)))
        steps = []
        for (u, v, w), p, t in zip(fields, params, times):
            dt = min(fixed, stepper_module._CFL_REACT / max(float(w.max()) + c.decay_u,
                                                            max(c.decay_v, c.decay_w)))
            g = max(float(np.abs(np.diff(v, axis=axis)).max()) / h
                    for axis, h in enumerate(grid.spacing))
            if g > 0.0:
                dt = min(dt, control.cfl_advect * h_min
                         / (faces * g * (1.0 + float(u.min())) ** (-p.alpha)))
            steps.append(min(dt, until - t))
        return steps

    @staticmethod
    def ensemble(shape, v_spread, seed):
        # u near 0, so that the advective cap is as small as its v allows;
        # the last member's v is constant
        rng = np.random.default_rng(seed)
        alphas = (0.5, 2.0, 1.0, 0.0)
        fields = np.stack([np.stack([rng.uniform(0.0, 0.1, shape),
                                     rng.uniform(0.0, v_spread, shape),
                                     rng.uniform(0.0, 1.0, shape)]) for _ in alphas])
        fields[-1, 1] = 0.5
        return fields, tuple(Params(alpha=alpha, kappa=1.0) for alpha in alphas)

    def step_sizes(self, monkeypatch, fields, params, grid, control, until):
        original, reductions = stepper_module._gradient_max, []

        def counting_gradient_max(state, plan):
            reductions.append(state)
            return original(state, plan)

        monkeypatch.setattr(stepper_module, "_gradient_max", counting_gradient_max)
        times = [0.0, 0.25, 0.5, 0.125]
        state = State.from_fields(fields, times)
        plan = stepper_module._Plan(params, grid, control, fields.shape)
        steps = plan.step_sizes(state, until)
        assert steps == self.formula(fields, times, params, grid, control, until)
        return steps, len(reductions)

    @pytest.mark.parametrize("shape", [(8,), (6, 5), (4, 3, 3)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_advective_cap_binds_on_a_steep_v(self, monkeypatch, shape, scheme):
        grid = Grid(shape)
        fields, params = self.ensemble(shape, 50.0, len(shape))
        control = StepControl(scheme=scheme)
        steps, reductions = self.step_sizes(monkeypatch, fields, params, grid, control, 0.8)
        # one reduction for every member; all but the last capped by it
        assert reductions == 1
        fixed = self.formula(fields[-1:], [0.0], params[-1:], grid, control, math.inf)[0]
        assert max(steps[:-1]) < fixed and steps[-1] == fixed

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (4, 6, 3)])
    def test_advective_cap_binds_at_the_bound(self, monkeypatch, shape):
        # v jumps by its whole spread across the faces of the finest axis,
        # so max |grad v| equals its bound; with u = 0 the advective cap is
        # half the diffusion cap
        grid = Grid(shape)
        axis, jump = int(np.argmin(grid.spacing)), [slice(None)] * len(shape)
        jump[axis] = slice(shape[axis] // 2, None)
        member = np.zeros((3,) + shape)
        member[1][tuple(jump)] = 2.0
        fields = np.stack([member] * 4)
        params = tuple(Params(alpha=alpha, kappa=1.0) for alpha in (0.5, 2.0, 1.0, 0.0))
        control = StepControl(scheme="explicit-euler")
        steps, reductions = self.step_sizes(monkeypatch, fields, params, grid, control, math.inf)
        fixed = control.cfl_advect * min(grid.spacing) ** 2 / (2.0 * grid.ndim)
        assert reductions == 1 and steps == [fixed / 2] * 4

    @pytest.mark.parametrize("shape", [(32,), (12, 10), (6, 5, 4)])
    def test_reduction_skipped_where_the_bound_rules_the_cap_out(self, monkeypatch, shape):
        # under explicit-euler the diffusion cap binds, and the bound rules
        # the advective cap out while v's spread times (1 + min u)^-alpha
        # stays at most the largest diffusivity, here 1
        grid = Grid(shape)
        fields, params = self.ensemble(shape, 0.5, len(shape))
        control = StepControl(scheme="explicit-euler")
        for until in (math.inf, 0.5 + 1e-6):  # the third member's step clipped
            steps, reductions = self.step_sizes(monkeypatch, fields, params, grid, control, until)
            assert reductions == 0
        assert steps[2] == until - 0.5 < steps[0] == steps[1] == steps[3]


class TestStep:
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_infection_free_fixed_point(self, scheme):
        grid = Grid((24,))
        params = Params(alpha=1.0, kappa=2.0)
        state = constant_state(grid, 2.0, 0.0, 0.0)
        control = StepControl(scheme=scheme)
        out = step(state, params, grid, 0.01, control)
        assert np.abs(out.u - 2.0).max() <= 1e-13
        assert np.abs(out.v).max() <= 1e-13
        assert np.abs(out.w).max() <= 1e-13

    def test_explicit_source_only(self):
        grid = Grid((10,))
        params = Params(alpha=1.0, kappa=1.0)
        state = constant_state(grid, 0.0, 0.0, 0.0)
        out = step(state, params, grid, 0.003, StepControl(scheme="explicit-euler"))
        np.testing.assert_array_equal(out.u, 0.003)
        np.testing.assert_array_equal(out.v, 0.0)
        np.testing.assert_array_equal(out.w, 0.0)
        assert out.t == 0.003

    def test_imex_matches_implicit_solve_oracle(self):
        # v constant, w = 0, kappa = 0: u undergoes pure heat-with-decay
        rng = np.random.default_rng(5)
        grid = Grid((32,))
        u = rng.uniform(0.5, 2.0, 32)
        state = State(u, grid.new_field(1.0), grid.new_field(0.0))
        params = Params(alpha=1.0, kappa=0.0)
        dt = 0.01
        out = step(state, params, grid, dt, StepControl())
        # exponential Euler: (I - phi*lap) x = u + phi*(-u), phi = 1 - e^-dt
        phi = -math.expm1(-dt)
        oracle = helmholtz_solve(u - phi * u, phi, grid)
        assert np.abs(out.u - oracle).max() <= 1e-10

    def test_mass_recurrence_exact_per_step(self):
        rng = np.random.default_rng(17)
        params = Params(alpha=0.7, kappa=1.5)
        control = StepControl(scheme="explicit-euler")
        for shape in ((20,), (6, 5), (4, 3, 5)):
            grid = Grid(shape)
            state = State(rng.uniform(0, 2, shape), rng.uniform(0, 1, shape),
                          rng.uniform(0, 1, shape))
            for _ in range(50):
                dt = stable_dt(state, params, grid, control)
                mass = integrate(state.u, grid) + integrate(state.v, grid)
                state = step(state, params, grid, dt, control)
                predicted = mass + dt * (params.kappa * grid.volume - mass)
                measured = integrate(state.u, grid) + integrate(state.v, grid)
                assert abs(measured - predicted) <= 1e-12 * max(1.0, abs(measured)), shape

    @pytest.mark.parametrize("shape", [(24,), (7, 6), (5, 4, 3), (8, 7, 6, 5), (6, 5, 5, 4, 4)])
    def test_explicit_matches_operator_reference(self, shape):
        # the fused explicit step against the public operators, term by term
        rng = np.random.default_rng(len(shape))
        grid = Grid(shape)
        coeffs = Coefficients(d_u=0.6, d_v=1.7, d_w=0.4, decay_u=1.3, decay_v=0.8,
                              decay_w=2.1, production=1.9)
        params = Params(alpha=0.8, kappa=0.7, coeffs=coeffs)
        u, v, w = (rng.uniform(0.2, 2, shape) for _ in range(3))
        state = State(u, v, w, t=0.25)
        control = StepControl(scheme="explicit-euler")
        dt = stable_dt(state, params, grid, control)
        out = step(state, params, grid, dt, control)
        # the kinetics, written out here so that the reference does not share them
        rate_u = -u * w + params.kappa - coeffs.decay_u * u
        rate_v = u * w - coeffs.decay_v * v
        rate_w = coeffs.production * v - coeffs.decay_w * w
        expected = (
            u + dt * (coeffs.d_u * laplacian_neumann(u, grid)
                      - chemotaxis_divergence(u, v, grid, params.alpha) + rate_u),
            v + dt * (coeffs.d_v * laplacian_neumann(v, grid) + rate_v),
            w + dt * (coeffs.d_w * laplacian_neumann(w, grid) + rate_w),
        )
        assert np.abs(chemotaxis_divergence(u, v, grid, params.alpha)).max() > 0.1
        for got, want in zip((out.u, out.v, out.w), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert out.t == 0.25 + dt

    def test_halving_retry_matches_fresh_step(self):
        rng = np.random.default_rng(9)
        grid = Grid((16,))
        fields = (rng.uniform(0, 2, 16), rng.uniform(0, 1, 16), rng.uniform(0, 3, 16))
        state = State(*fields)
        params = Params(alpha=1.0, kappa=0.5)
        control = StepControl(scheme="explicit-euler")
        with pytest.raises(NegativityDetected):
            step(state, params, grid, 5.0, control)
        retried = step(state, params, grid, 1e-4, control)
        fresh = step(State(*fields), params, grid, 1e-4, control)
        np.testing.assert_array_equal(retried.fields, fresh.fields)
        # other parameters on the same state must not reuse its rates
        other = Params(alpha=1.0, kappa=2.5)
        np.testing.assert_array_equal(step(state, other, grid, 1e-4, control).fields,
                                      step(State(*fields), other, grid, 1e-4, control).fields)

    @pytest.mark.parametrize("case", ["nan", "inf"])
    def test_non_finite_result_detected(self, case):
        grid = Grid((8,))
        control = StepControl(scheme="explicit-euler")
        if case == "nan":
            w = grid.new_field(0.5)
            w[3] = np.nan
            state = State(grid.new_field(1.0), grid.new_field(0.0), w)
            params = Params(alpha=1.0, kappa=0.0)
        else:
            # production * v overflows: only w becomes +inf, nothing negative
            state = constant_state(grid, 0.0, 1e308, 0.0)
            params = Params(alpha=1.0, kappa=0.0, coeffs=Coefficients(production=10.0))
        with pytest.raises(NegativityDetected) as excinfo, np.errstate(over="ignore"):
            step(state, params, grid, 0.01, control)
        if case == "nan":
            assert np.isnan(excinfo.value.minimum)
        else:
            assert excinfo.value.component == "w"
            assert excinfo.value.minimum == np.inf

    def test_imex_nan_detected(self):
        grid = Grid((32,))
        w = grid.new_field(0.5)
        w[7] = np.nan
        state = State(grid.new_field(1.0), grid.new_field(0.2), w)
        with pytest.raises(NegativityDetected):
            step(state, Params(alpha=1.0, kappa=1.0), grid, 0.01, StepControl())

    def test_imex_makes_one_solve_per_step(self, monkeypatch):
        calls = []

        def counting_solve(rhs, tau, grid_, **scratch):
            calls.append(rhs.shape)
            return helmholtz_solve(rhs, tau, grid_, **scratch)

        monkeypatch.setattr(stepper_module, "helmholtz_solve", counting_solve)
        grid = Grid((6, 5))
        state = initial_condition_preset("random-smooth", grid, 1.0, seed=2)
        params = Params(alpha=1.0, kappa=1.0,
                        coeffs=Coefficients(d_u=0.5, d_w=2.0, decay_v=3.0))
        out = step(state, params, grid, 0.01, StepControl())
        # a single state is solved as the ensemble of one member
        assert calls == [(1, 3, 6, 5)]
        # the stacked solve equals three per-field solves of
        # (I - phi*d*lap) x = f + phi*rates, phi = (1 - e^(-decay*dt))/decay
        c, dt = params.coeffs, 0.01
        imex_rates = single_rates(state, params, grid, "imex")
        for k, (d, decay) in enumerate(((c.d_u, c.decay_u), (c.d_v, c.decay_v),
                                        (c.d_w, c.decay_w))):
            phi = -math.expm1(-decay * dt) / decay
            want = helmholtz_solve(state.fields[k] + phi * imex_rates[k], phi * d, grid)
            np.testing.assert_allclose(out.fields[k], want, rtol=0, atol=1e-14)

    def test_negativity_detected_on_oversized_dt(self):
        grid = Grid((8,))
        state = constant_state(grid, 1.0, 0.0, 3.0)
        params = Params(alpha=1.0, kappa=0.0)
        with pytest.raises(NegativityDetected):
            step(state, params, grid, 10.0, StepControl(scheme="explicit-euler"))


class TestExponentialEuler:
    """The imex step treats the decay by exponential Euler, exactly in the mean."""

    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("decay", [1.0, 2.0])
    @pytest.mark.parametrize("shape", [(20,), (6, 5), (4, 3, 5)])
    def test_mass_identity_exact_per_step(self, shape, decay, dt):
        grid = Grid(shape)
        coeffs = Coefficients(d_u=0.5, decay_u=decay, decay_v=decay)
        params = Params(alpha=1.0, kappa=2.5, coeffs=coeffs)
        state = initial_condition_preset("random-smooth", grid, params.kappa, seed=3)
        factor = math.exp(-decay * dt)
        for _ in range(10):
            mass = integrate(state.u, grid) + integrate(state.v, grid)
            state = step(state, params, grid, dt, StepControl())
            predicted = factor * mass + params.kappa * grid.volume * (1.0 - factor) / decay
            measured = integrate(state.u, grid) + integrate(state.v, grid)
            assert abs(measured - predicted) <= 1e-12 * abs(predicted)

    @pytest.mark.parametrize("shape", [(24,), (6, 5)])
    def test_infection_free_state_is_bit_exact(self, shape):
        grid = Grid(shape)
        params = Params(alpha=1.0, kappa=3.0, coeffs=Coefficients(decay_u=2.0))
        fixed = constant_state(grid, params.kappa / 2.0, 0.0, 0.0)
        state = fixed
        for _ in range(5):
            state = step(state, params, grid, 0.1, StepControl())
            np.testing.assert_array_equal(state.fields, fixed.fields)

    def test_first_order_in_time(self):
        # successive differences of four runs halving dt_max from 0.1; the
        # step-size caps bind only in the first steps
        grid = Grid((32,))
        params = Params(alpha=1.0, kappa=2.0)
        initial = initial_condition_preset("random-smooth", grid, params.kappa, seed=1)
        finals = [run(initial, params, grid, StepControl(dt_max=dt_max), t_end=1.0,
                      monitor_every=1.0).final_state.fields
                  for dt_max in (0.1, 0.05, 0.025, 0.0125)]
        differences = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(differences, differences[1:])]
        assert all(0.85 <= order <= 1.15 for order in orders), orders


class TestUpwindPositivity:
    @pytest.mark.parametrize("ndim,shape", [(1, (24,)), (2, (8, 9)), (3, (4, 5, 4))])
    def test_pure_chemotaxis_update_stays_nonnegative(self, ndim, shape):
        rng = np.random.default_rng(100 + ndim)
        grid = Grid(shape)
        control = StepControl(dt_max=10.0)
        for trial in range(40):
            alpha = float(rng.uniform(0.0, 2.5))
            u = rng.uniform(0, 3, shape) * (rng.random(shape) > 0.25)
            v = rng.normal(size=shape) * 5.0
            state = State(u, v, grid.new_field(0.0))
            params = Params(alpha=alpha, kappa=0.0)
            dt = stable_dt(state, params, grid, control)
            updated = u - dt * chemotaxis_divergence(u, v, grid, alpha)
            assert float(updated.min()) >= 0.0


class TestMirrorSymmetry:
    @pytest.mark.parametrize("shape", [(31,), (9, 7), (6, 5, 4), (8, 7, 6, 5), (6, 5, 5, 4, 4)])
    @pytest.mark.parametrize("coeffs", [Coefficients(), Coefficients(
        d_u=0.6, d_v=1.7, d_w=0.4, decay_u=1.3, decay_v=0.8, decay_w=2.1, production=1.9)],
        ids=["unit", "mixed"])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_rates_mirror_along_every_axis(self, shape, coeffs, scheme):
        # an axis's divergence is one subtraction of its bordered faces, and
        # each further axis is summed in axis order: flipping any axis of
        # the fields flips the rates bit for bit
        rng = np.random.default_rng(len(shape))
        grid = Grid(shape)
        params = Params(alpha=0.8, kappa=0.7, coeffs=coeffs)
        fields = np.stack([rng.uniform(0.0, 2.0, shape), rng.uniform(0.0, 5.0, shape),
                           rng.uniform(0.0, 1.0, shape)])
        rates = single_rates(State.from_fields(fields), params, grid, scheme)
        for axis in range(1, len(shape) + 1):
            mirrored = State.from_fields(np.flip(fields, axis).copy())
            np.testing.assert_array_equal(
                single_rates(mirrored, params, grid, scheme), np.flip(rates, axis))


def upper_less_lower(faces, axis):
    """The divergence of a face flux whose boundary faces are zero."""
    zero = np.zeros_like(np.take(faces, [0], axis=axis))
    return np.diff(np.concatenate([zero, faces, zero], axis=axis), axis=axis)


def written_out_rates(fields, params, scheme, grid):
    """An ensemble's rates by the donor-cell formula ((dv/h) phi_up)/h, with
    the diffusion flux d (df/h^2) under explicit-euler, each axis's divergence
    summed in axis order, and the kinetics in _rates' order."""
    rates = []
    for member, p in zip(fields, params):
        c = p.coeffs
        u, v, w = member
        phi = u / (1.0 + u) ** p.alpha
        total = 0.0
        for axis, h in enumerate(grid.spacing):
            below = (slice(None),) * axis + (slice(None, -1),)
            above = (slice(None),) * axis + (slice(1, None),)
            g = np.diff(v, axis=axis) / h
            flux = np.where(g > 0.0, phi[below], phi[above]) * g
            flux /= h
            if scheme == "explicit-euler":
                faces = np.diff(member, axis=axis + 1) / (h * h)
                faces *= np.reshape((c.d_u, c.d_v, c.d_w), (3,) + (1,) * grid.ndim)
                faces[0] -= flux
                total = total + upper_less_lower(faces, axis + 1)
            else:
                total = total + upper_less_lower(flux, axis)
        if scheme == "explicit-euler":
            rate = total
        else:
            rate = np.zeros(member.shape)
            rate[0] -= total
        rate[0] -= u * w
        rate[1] += u * w
        rate[0] += p.kappa
        rate[2] += c.production * v
        rate -= np.reshape((c.decay_u, c.decay_v, c.decay_w), (3,) + (1,) * grid.ndim) * member
        rates.append(rate)
    return np.stack(rates)


MIXED = Coefficients(d_u=0.6, d_v=1.7, d_w=0.4, decay_u=1.3, decay_v=0.8, decay_w=2.1,
                     production=1.9)


class TestDonorCellFlux:
    """_rates against the donor-cell formula written out: the flux is formed
    on the raw face differences and divided by h^2 once, which on a spacing
    of 2^-k is exact."""

    @staticmethod
    def rates(shape, scheme, coeffs, seed):
        # three members at distinct alphas, with steep and gentle v
        rng = np.random.default_rng(seed)
        params = tuple(Params(alpha=alpha, kappa=0.7, coeffs=coeffs) for alpha in (0.8, 2.0, 0.0))
        fields = np.stack([np.stack([rng.uniform(0.0, 2.0, shape),
                                     rng.uniform(0.0, scale, shape),
                                     rng.uniform(0.0, 1.0, shape)]) for scale in (5.0, 0.1, 1.0)])
        grid = Grid(shape)
        plan = stepper_module._Plan(params, grid, StepControl(scheme=scheme), fields.shape)
        got = stepper_module._rates(State.from_fields(fields, [0.0] * 3), plan).copy()
        return got, written_out_rates(fields, params, scheme, grid)

    @pytest.mark.parametrize("shape", [(32,), (16, 8), (8, 4, 4), (8, 4, 4, 4), (4, 4, 4, 4, 4)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    @pytest.mark.parametrize("coeffs", [Coefficients(), MIXED], ids=["unit", "mixed"])
    def test_equal_to_the_formula_on_power_of_two_spacing(self, shape, scheme, coeffs):
        got, want = self.rates(shape, scheme, coeffs, len(shape))
        assert np.abs(want[:, 0]).max() > 1.0
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(12, 10), (6, 5, 4), (8, 7, 6, 5), (6, 5, 5, 4, 4)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    @pytest.mark.parametrize("coeffs", [Coefficients(), MIXED], ids=["unit", "mixed"])
    def test_within_rounding_of_the_formula_on_other_spacing(self, shape, scheme, coeffs):
        got, want = self.rates(shape, scheme, coeffs, len(shape))
        scale = np.abs(want).max(axis=tuple(range(2, want.ndim)), keepdims=True)
        assert (np.abs(got - want) <= 1e-15 * scale).all()

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_constant_v_member_gets_exact_zero_flux(self, monkeypatch, scheme):
        # beside a member with chemotaxis, a member whose v is constant gets
        # the rates it would get with phi = 0: its flux is exact zeros
        grid = Grid((10, 6))
        rng = np.random.default_rng(3)
        params = (Params(alpha=0.8, kappa=0.7, coeffs=MIXED),
                  Params(alpha=1.5, kappa=0.7, coeffs=MIXED))
        fields = rng.uniform(0.1, 2.0, (2, 3) + grid.shape)
        fields[1, 1] = 0.5

        def rates():
            plan = stepper_module._Plan(params, grid, StepControl(scheme=scheme), fields.shape)
            return stepper_module._rates(State.from_fields(fields, [0.0, 0.0]), plan).copy()

        with_flux = rates()
        monkeypatch.setattr(stepper_module, "_sensitivity",
                            lambda u, runs, out: np.multiply(u, 0.0, out=out))
        without_flux = rates()
        assert not np.array_equal(with_flux[0], without_flux[0])
        np.testing.assert_array_equal(with_flux[1], without_flux[1])


class TestRun:
    def test_t_end_zero(self):
        # one record, the t = 0 record of any run, and a copy of the initial state
        grid = Grid((8,))
        initial = initial_condition_preset("random-smooth", grid, 1.0, seed=4)
        params = Params(alpha=1.0, kappa=1.0)
        result = run(initial, params, grid, StepControl(), t_end=0.0, monitor_every=0.1)
        longer = run(initial, params, grid, StepControl(), t_end=1.0, monitor_every=0.1)
        assert_same_start(result, longer, initial)

    def test_records_at_exact_monitor_times(self):
        grid = Grid((8,))
        initial = constant_state(grid, 1.0, 0.0, 0.0)
        result = run(initial, Params(alpha=1.0, kappa=1.0), grid, StepControl(),
                     t_end=1.0, monitor_every=0.25)
        assert [r.t for r in result.records] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_steady_state_diagnostics_constant(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=2.0)
        initial = constant_state(grid, 2.0, 0.0, 0.0)
        result = run(initial, params, grid, StepControl(), t_end=10.0, monitor_every=0.5)
        assert result.records[0].mass_u == pytest.approx(2.0, rel=1e-14)
        for record in result.records:
            assert record.mass_u == pytest.approx(2.0, rel=1e-10)
            assert record.sup_u == pytest.approx(2.0, rel=1e-10)
            assert abs(record.mass_v) <= 1e-10
            assert abs(record.energy - result.records[0].energy) <= 1e-10

    def test_deterministic_repeat(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=1.0)
        initial = initial_condition_preset("gaussian-bump-v", grid, params.kappa)
        first = run(initial, params, grid, StepControl(), t_end=0.5, monitor_every=0.1)
        second = run(initial, params, grid, StepControl(), t_end=0.5, monitor_every=0.1)
        assert [tuple(vars(r).values()) for r in first.records] == \
               [tuple(vars(r).values()) for r in second.records]

    def test_positivity_over_random_runs(self):
        grid = Grid((16,))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            alpha = float(rng.uniform(0.6, 2.0))
            kappa = float(rng.uniform(0.0, 2.0))
            initial = initial_condition_preset("random-smooth", grid, kappa, seed=seed)
            result = run(initial, Params(alpha=alpha, kappa=kappa), grid, StepControl(),
                         t_end=0.5, monitor_every=0.1)
            final = result.final_state
            assert min(final.u.min(), final.v.min(), final.w.min()) >= 0.0

    def test_u_mass_bound_monotone_along_run(self):
        grid = Grid((48,))
        for kappa in (0.0, 1.0):
            initial = initial_condition_preset("gaussian-bump-v", grid, kappa)
            result = run(initial, Params(alpha=1.0, kappa=kappa), grid, StepControl(),
                         t_end=5.0, monitor_every=0.1)
            assert min(r.u_bound_slack for r in result.records) >= -1e-3

    @pytest.mark.parametrize("grid", [Grid((128,), (10.0,)), Grid((256,), (20.0,)),
                                      Grid((48, 48), (8.0, 8.0))])
    def test_compact_support_run_stays_nonnegative(self, grid):
        # v0 underflows to exact zeros far from the bump, where the implicit
        # solve's exact values fall below roundoff
        initial = initial_condition_preset("gaussian-bump-v", grid, 1.0)
        assert (initial.v == 0.0).any()
        result = run(initial, Params(alpha=1.0, kappa=1.0), grid, StepControl(),
                     t_end=1.0, monitor_every=1.0)
        assert result.final_state.t == 1.0
        assert result.final_state.fields.min() >= 0.0

    def test_grid_refinement_convergence_order(self):
        # pure diffusion with decay; first Neumann mode shifted nonnegative
        t_end = 0.1
        mu = 1.0 + math.pi ** 2
        errors = []
        for cells in (16, 32, 64):
            grid = Grid((cells,))
            x = grid.cell_centers(0)
            initial = State(1.0 + np.cos(np.pi * x), grid.new_field(0.0),
                            grid.new_field(0.0))
            result = run(initial, Params(alpha=1.0, kappa=0.0), grid,
                         StepControl(dt_max=1.0, scheme="explicit-euler"),
                         t_end=t_end, monitor_every=t_end)
            exact = math.exp(-t_end) + math.exp(-mu * t_end) * np.cos(np.pi * x)
            errors.append(np.abs(result.final_state.u - exact).max())
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9

    def test_unstable_run_aborts_with_snapshot(self, monkeypatch):
        grid = Grid((8,))
        initial = constant_state(grid, 1.0, 0.0, 0.0)

        def always_negative(state, params, grid_, dt, control):
            # the run loop steps an ensemble, whose failed members come back negative
            return State.from_fields(state.fields - 2.0, [t + dt for t in state.t])

        monkeypatch.setattr(stepper_module, "step", always_negative)
        with pytest.raises(UnstableRunError) as excinfo:
            run(initial, Params(alpha=1.0, kappa=1.0), grid, StepControl(),
                t_end=1.0, monitor_every=0.5)
        assert excinfo.value.t == 0.0
        assert excinfo.value.state.u.shape == (8,)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_non_finite_t_end(self, t_end):
        grid = Grid((8,))
        with pytest.raises(ValueError, match="t_end must be finite"):
            run(constant_state(grid, 1.0, 0.0, 0.0), Params(alpha=1.0), grid, StepControl(),
                t_end=t_end, monitor_every=0.5)

    @pytest.mark.parametrize("monitor_every", [0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("members", [1, 2], ids=["single", "ensemble"])
    def test_rejects_a_monitor_interval_that_is_not_positive_and_finite(self, monitor_every,
                                                                        members):
        grid = Grid((8,))
        initial = constant_state(grid, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="^monitor_every"):
            if members == 1:
                run(initial, Params(alpha=1.0), grid, StepControl(), t_end=1.0,
                    monitor_every=monitor_every)
            else:
                run([initial] * 2, [Params(alpha=1.0)] * 2, grid, StepControl(), t_end=1.0,
                    monitor_every=monitor_every)

    def test_zero_dt_aborts(self):
        # the explicit-diffusion cap h^2 / 2 underflows to 0
        grid = Grid((16,), (1e-170,))
        with pytest.raises(UnstableRunError, match="too small to advance t") as excinfo:
            run(constant_state(grid, 1.0, 0.0, 0.0), Params(alpha=1.0), grid,
                StepControl(scheme="explicit-euler"), t_end=1.0, monitor_every=0.5)
        assert excinfo.value.t == 0.0 and excinfo.value.last_error is None

    def test_rejects_invalid_initial_state(self):
        grid = Grid((8,))
        bad = State(grid.new_field(-1.0), grid.new_field(0.0), grid.new_field(0.0))
        with pytest.raises(ValueError):
            run(bad, Params(alpha=1.0), grid, StepControl(), t_end=1.0, monitor_every=0.5)

    @pytest.mark.parametrize("members", [1, 2], ids=["single", "ensemble"])
    def test_rejects_an_initial_state_after_t_zero(self, members):
        # the oracles count t from 0, and the first target would lie behind t
        grid = Grid((16,))
        late = State.from_fields(constant_state(grid, 1.0, 0.0, 0.0).fields, 0.5)
        with pytest.raises(ValueError, match="t=0.5"):
            if members == 1:
                run(late, Params(alpha=1.0), grid, StepControl(), t_end=1.0, monitor_every=0.1)
            else:
                run([constant_state(grid, 1.0, 0.0, 0.0), late], [Params(alpha=1.0)] * 2, grid,
                    StepControl(), t_end=1.0, monitor_every=0.1)


class TestStepTooSmall:
    """A dt too small to advance the next monitor time aborts its member after
    the one step it takes: explicit Euler on 16 cells of lengths 1e-160, where
    the diffusion cap is 1e-323."""

    GRID = Grid((16,), (1e-160,))
    CONTROL = StepControl(scheme="explicit-euler")

    def assert_aborted_after_one_step(self, error, initial, params):
        dt = stable_dt(initial, params, self.GRID, self.CONTROL)
        assert 0.0 < dt and 0.1 + dt == 0.1
        after = step(initial, params, self.GRID, dt, self.CONTROL)
        assert isinstance(error, UnstableRunError) and error.last_error is None
        assert "too small to advance t" in str(error)
        assert error.t == after.t == dt
        assert error.state.t == error.t
        assert error.state.fields.tobytes() == after.fields.tobytes()

    def test_single_run(self):
        initial, params = constant_state(self.GRID, 2.0, 0.0, 0.0), Params(alpha=1.0, kappa=2.0)
        with pytest.raises(UnstableRunError) as excinfo:
            run(initial, params, self.GRID, self.CONTROL, t_end=2.0, monitor_every=0.1)
        self.assert_aborted_after_one_step(excinfo.value, initial, params)

    def test_each_member_equals_its_single_run(self):
        initials = [constant_state(self.GRID, 2.0, 0.0, 0.0),
                    constant_state(self.GRID, 1.0, 0.5, 0.25)]
        params = [Params(alpha=1.0, kappa=2.0), Params(alpha=2.0, kappa=2.0)]
        errors = run(initials, params, self.GRID, self.CONTROL, t_end=2.0, monitor_every=0.1)
        for error, initial, p in zip(errors, initials, params):
            self.assert_aborted_after_one_step(error, initial, p)
            with pytest.raises(UnstableRunError) as excinfo:
                run(initial, p, self.GRID, self.CONTROL, t_end=2.0, monitor_every=0.1)
            assert (excinfo.value.t, excinfo.value.last_error) == (error.t, None)
            assert excinfo.value.state.fields.tobytes() == error.state.fields.tobytes()


def assert_same_start(result, longer, initial):
    # a run to t_end = 0: the first record of a longer run, bit for bit, and
    # a final state equal to the initial one that shares no memory with it
    np.testing.assert_array_equal([tuple(vars(r).values()) for r in result.records],
                                  [tuple(vars(longer.records[0]).values())])
    assert result.final_state.t == 0.0
    np.testing.assert_array_equal(result.final_state.fields, initial.fields)
    assert not np.shares_memory(result.final_state.fields, initial.fields)


def failing_step(alpha, largest_dt):
    """A step that drives the member at ``alpha`` negative while its dt
    exceeds ``largest_dt``, and hands the plan on as step does."""
    def wrapper(state, params, grid, dt, control):
        new = step(state, params, grid, dt, control)
        dts = [dt] if isinstance(dt, float) else dt
        failing = [k for k, (p, d) in enumerate(zip(params, dts))
                   if p.alpha == alpha and d > largest_dt]
        if not failing:
            return new
        fields = new.fields.copy()
        fields[failing] -= 10.0
        bad = State.from_fields(fields, new.t)
        bad.memo["plan"] = new.memo["plan"]
        return bad
    return wrapper


def assert_same_run(member, single):
    # bit for bit: records (NaN where the energy monitor is off), counters
    # and final state
    np.testing.assert_array_equal([tuple(vars(r).values()) for r in member.records],
                                  [tuple(vars(r).values()) for r in single.records])
    assert (member.steps, member.negativity_retries, member.max_dt) == \
           (single.steps, single.negativity_retries, single.max_dt)
    assert member.final_state.t == single.final_state.t
    np.testing.assert_array_equal(member.final_state.fields, single.final_state.fields)


class TestEnsemble:
    ALPHAS = (0.5, 0.5, 0.6, 2.0, 1.0, 0.0, 1.5)

    def members(self, grid, kappa=2.0, overflow=True):
        initials = [initial_condition_preset("random-smooth", grid, kappa, seed=seed)
                    for seed in range(len(self.ALPHAS))]
        if overflow:
            # u*w overflows to inf for every dt: this member aborts
            initials[3] = State(grid.new_field(1e308), grid.new_field(0.0),
                                grid.new_field(1e308))
        return initials, [Params(alpha=alpha, kappa=kappa) for alpha in self.ALPHAS]

    @pytest.mark.parametrize("shape", [(32,), (33,), (7, 6), (5, 4, 3), (8, 7, 6, 5),
                                       (6, 5, 5, 4, 4)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_members_equal_single_runs(self, shape, scheme):
        control = StepControl(scheme=scheme, dt_max=0.01 if scheme == "imex" else 1.0)
        self.assert_members_equal_single_runs(Grid(shape), control,
                                              0.5 if scheme == "imex" else 0.02)

    @pytest.mark.parametrize("shape", [(32,), (33,), (7, 6)])
    def test_members_equal_single_runs_default_control(self, shape):
        self.assert_members_equal_single_runs(Grid(shape), StepControl(), 0.5)

    def assert_members_equal_single_runs(self, grid, control, t_end):
        initials, params = self.members(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            results = run(initials, params, grid, control, t_end, t_end / 5)
            for initial, p, member in zip(initials, params, results):
                try:
                    single = run(initial, p, grid, control, t_end, t_end / 5)
                except UnstableRunError as error:
                    assert isinstance(member, UnstableRunError)
                    assert (member.t, member.last_error.component, member.last_error.dt) == \
                           (error.t, error.last_error.component, error.last_error.dt)
                    np.testing.assert_array_equal(member.state.fields, error.state.fields)
                    continue
                assert_same_run(member, single)
        assert isinstance(results[3], UnstableRunError)
        assert sum(isinstance(r, UnstableRunError) for r in results) == 1

    @pytest.mark.parametrize("shape", [(33,), (7, 6)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_step_equals_member_steps(self, shape, scheme):
        # steep v, so that the chemotaxis term is not lost in roundoff;
        # numpy evaluates x ** 0.5 and x ** 2.0 by other paths than x ** 0.7
        rng = np.random.default_rng(7)
        grid = Grid(shape)
        alphas = (0.5, 0.5, 2.0, 1.0, 0.7, 0.0)
        fields = np.stack([np.stack([rng.uniform(0, 3, shape), rng.uniform(0, 5, shape),
                                     rng.uniform(0, 1, shape)]) for _ in alphas])
        params = tuple(Params(alpha=alpha, kappa=1.0) for alpha in alphas)
        control = StepControl(scheme=scheme)
        ensemble = State.from_fields(fields, np.zeros(len(alphas)))
        plan = stepper_module._Plan(params, grid, control, fields.shape)
        dt = np.array(plan.step_sizes(ensemble))
        new = step(ensemble, params, grid, dt, control)
        assert np.isfinite(new.fields).all() and new.fields.min() >= 0.0
        for member, p in enumerate(params):
            single = State.from_fields(fields[member], 0.0)
            assert dt[member] == stable_dt(single, p, grid, control)
            np.testing.assert_array_equal(stepper_module._rates(ensemble, plan)[member],
                                          single_rates(single, p, grid, scheme))
            np.testing.assert_array_equal(new.fields[member],
                                          step(single, p, grid, dt[member], control).fields)

    def test_member_without_a_step_aborts_alone(self):
        # a jump of 1e308 in v overflows max |grad v|, so this member's
        # advective cap, and its dt, is 0
        grid = Grid((32,))
        initials, params = self.members(grid, overflow=False)
        v = grid.new_field(0.0)
        v[5] = 1e308
        initials[2] = State(grid.new_field(1.0), v, grid.new_field(0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            results = run(initials, params, grid, StepControl(), 0.5, 0.1)
            for index, (initial, p, member) in enumerate(zip(initials, params, results)):
                if index == 2:
                    assert isinstance(member, UnstableRunError)
                    assert (member.t, member.last_error) == (0.0, None)
                    with pytest.raises(UnstableRunError, match="too small to advance t"):
                        run(initial, p, grid, StepControl(), 0.5, 0.1)
                else:
                    assert_same_run(member, run(initial, p, grid, StepControl(), 0.5, 0.1))

    def test_members_may_differ_only_in_alpha(self):
        grid = Grid((8,))
        initials, params = self.members(grid, overflow=False)
        params[1] = Params(alpha=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="only in alpha"):
            run(initials, params, grid, StepControl(), 1.0, 0.5)

    def test_t_end_zero_and_empty(self):
        grid = Grid((8,))
        initials, params = self.members(grid, overflow=False)
        results = run(initials, params, grid, StepControl(), 0.0, 0.1)
        longer = run(initials, params, grid, StepControl(), 1.0, 0.1)
        for result, first, initial in zip(results, longer, initials):
            assert_same_start(result, first, initial)
        assert run([], [], grid, StepControl(), 1.0, 0.1) == []

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_members_recovering_after_halvings_equal_single_runs(self, monkeypatch, scheme):
        # the member at alpha 2.0 fails every step with dt > 1e-3, so it
        # halves its way below that at every step while the others go on
        monkeypatch.setattr(stepper_module, "step", failing_step(2.0, 1e-3))
        grid, control = Grid((8,)), StepControl(scheme=scheme)
        initials, params = self.members(grid, overflow=False)
        results = run(initials, params, grid, control, 0.1, 0.02)
        for initial, p, member in zip(initials, params, results):
            assert (member.negativity_retries > 0) == (p.alpha == 2.0)
            assert_same_run(member, run(initial, p, grid, control, 0.1, 0.02))

    def test_failure_path_builds_one_plan_per_member_set(self, monkeypatch):
        # three members, one negative at every dt: a plan for the three,
        # then one for the two left after it aborts
        plans, original = [], stepper_module._Plan.__init__

        def counting_init(plan, *args):
            plans.append(plan)
            original(plan, *args)

        monkeypatch.setattr(stepper_module._Plan, "__init__", counting_init)
        monkeypatch.setattr(stepper_module, "step", failing_step(1.0, 0.0))
        grid, initials, params = TestCarriedState().ensemble()
        results = run(initials[:3], params[:3], grid, StepControl(), 0.1, 0.05)
        assert [isinstance(r, UnstableRunError) for r in results] == [False, True, False]
        assert results[1].t == 0.0
        assert len(plans) <= 3

    def test_one_step_call_per_ensemble_step(self, monkeypatch):
        calls = []

        def counting_step(state, params, grid_, dt, control):
            calls.append(len(params))
            return step(state, params, grid_, dt, control)

        monkeypatch.setattr(stepper_module, "step", counting_step)
        grid = Grid((16,))
        initials, params = self.members(grid, overflow=False)
        results = run(initials, params, grid, StepControl(), 0.1, 0.05)
        assert max(r.steps for r in results) == len(calls)
        assert calls[0] == len(initials)

    def test_one_record_call_per_target(self, monkeypatch):
        calls = []

        def counting_record(state, grid_, params, exponents, first):
            calls.append(len(params))
            return compute_record(state, grid_, params, exponents, first)

        monkeypatch.setattr(stepper_module, "compute_record", counting_record)
        grid = Grid((16,))
        initials, params = self.members(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            results = run(initials, params, grid, StepControl(), 0.1, 0.05)
        # the initial records, then two targets without the aborted member
        count = len(initials)
        assert calls == [count, count - 1, count - 1]
        assert [len(r.records) for r in results if not isinstance(r, UnstableRunError)] == \
               [3] * (count - 1)


class TestCarriedState:
    """Members that reach a target together go on from the state they reached."""

    def ensemble(self):
        # gentle gradients and a small w: dt_max limits every member's step,
        # so the members reach each target together
        grid = Grid((32,))
        x = grid.cell_centers(0)
        initials = [State(1.0 + 0.1 * k * np.cos(np.pi * x), 0.5 + 0.01 * np.cos(2 * np.pi * x),
                          grid.new_field(0.1)) for k in range(4)]
        return grid, initials, [Params(alpha=alpha, kappa=2.0) for alpha in (0.7, 1.0, 1.5, 2.0)]

    @pytest.mark.parametrize("members", [1, 4])
    def test_records_read_the_last_stepped_state(self, monkeypatch, members):
        events = []

        def recording_step(state, params, grid_, dt, control):
            new = step(state, params, grid_, dt, control)
            events.append(("step", new.fields))
            return new

        def recording_record(state, *args):
            events.append(("record", state.fields))
            return compute_record(state, *args)

        monkeypatch.setattr(stepper_module, "step", recording_step)
        monkeypatch.setattr(stepper_module, "compute_record", recording_record)
        grid, initials, params = self.ensemble()
        if members == 1:
            run(initials[0], params[0], grid, StepControl(), 1.0, 0.1)
        else:
            run(initials, params, grid, StepControl(), 1.0, 0.1)
        records = [k for k, (kind, _) in enumerate(events) if kind == "record"]
        assert len(records) == 11
        for k in records[1:]:
            assert events[k - 1][0] == "step"
            assert np.shares_memory(events[k][1], events[k - 1][1])
            assert events[k][1].shape[0] == members

    def test_extrema_reduce_once_per_step(self, monkeypatch):
        # the initial state's, then one per step: none again at a target;
        # the records take them in monitors, the step sizes and checks here
        reductions = []
        original = grid_module._extrema

        def counting_extrema(state):
            reductions.append("extrema" not in state.memo)
            return original(state)

        for module in (stepper_module, monitors_module):
            monkeypatch.setattr(module, "_extrema", counting_extrema)
        grid, initials, params = self.ensemble()
        results = run(initials, params, grid, StepControl(), 1.0, 0.1)
        assert sum(reductions) == results[0].steps + 1
        assert [r.steps for r in results] == [results[0].steps] * 4


class TestWorkspace:
    """A planned step writes its intermediates into the plan's workspace."""

    @staticmethod
    def planned(scheme, shape=(40, 32, 24)):
        grid = Grid(shape)
        params = (Params(alpha=1.5, kappa=1.0),)
        control = StepControl(dt_max=0.01, scheme=scheme)
        initial = initial_condition_preset("gaussian-bump-v", grid, 1.0)
        state = State.from_fields(initial.fields[None].copy(), [0.0])
        return grid, params, control, state

    # grids of more than 4,096 cells: on smaller ones the buffers numpy's
    # iterator takes for a broadcast operand, freed within the call, weigh
    # more than the fields (an imex step on 6x5x4 peaks at 3.6x them)
    @pytest.mark.parametrize("shape", [(40, 32, 24), (12, 10, 8, 8), (8, 6, 6, 5, 5)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_step_allocates_only_its_fields(self, scheme, shape):
        grid, params, control, state = self.planned(scheme, shape)
        plan = stepper_module._Plan(params, grid, control, state.fields.shape)
        state.memo["plan"] = plan
        state = step(state, params, grid, plan.step_sizes(state)[0], control)  # warm-up
        tracemalloc.start()
        try:
            new = step(state, params, grid, plan.step_sizes(state)[0], control)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * state.fields.nbytes
        assert new.memo["plan"] is plan
        for buffer in (plan.rates, plan.spare, plan.phi):
            assert not np.shares_memory(new.fields, buffer)

    def test_plan_and_step_within_their_former_memory(self):
        # when every step allocated its temporaries, the plan held 1.34x and
        # a step peaked 3.97x above it, in units of the fields' size
        grid, params, control, state = self.planned("imex")
        tracemalloc.start()
        try:
            plan = stepper_module._Plan(params, grid, control, state.fields.shape)
            plan_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        state.memo["plan"] = plan
        state = step(state, params, grid, plan.step_sizes(state)[0], control)
        tracemalloc.start()
        try:
            step(state, params, grid, plan.step_sizes(state)[0], control)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan_bytes + peak <= 5.31 * state.fields.nbytes

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_differences_taken_once_per_stepped_state(self, monkeypatch, scheme):
        # the rates of each stepped state, and its step size when that needs
        # max |grad v|, share one filling: a filling overwrites a marker left
        # in v's first face difference, a reuse finds it there
        original, plans, fills = stepper_module._differences, set(), []
        original_gradient_max, reductions = stepper_module._gradient_max, []

        def counting_differences(state, plan):
            plans.add(plan)
            first, index = plan.velocity[0], (0,) * plan.velocity[0].ndim
            kept, first[index] = first[index], np.nan
            velocity = original(state, plan)
            fills.append(not np.isnan(first[index]))
            if not fills[-1]:
                first[index] = kept
            return velocity

        def counting_gradient_max(state, plan):
            reductions.append(state.fields)
            return original_gradient_max(state, plan)

        monkeypatch.setattr(stepper_module, "_differences", counting_differences)
        monkeypatch.setattr(stepper_module, "_gradient_max", counting_gradient_max)
        grid, initials, params = TestCarriedState().ensemble()
        if scheme == "explicit-euler":
            # v spread so far that its bound cannot rule out the advective
            # cap until diffusion has flattened it; the cap does not bind,
            # and the members still step together
            v = 2.5 + 2.0 * np.cos(2 * np.pi * grid.cell_centers(0))
            initials = [State(initial.u, v, initial.w) for initial in initials]
        results = run(initials, params, grid, StepControl(scheme=scheme), 1.0, 0.1)
        steps = results[0].steps
        assert [r.steps for r in results] == [steps] * 4 and len(plans) == 1
        # at most one reduction per stepped state, each sharing its filling
        assert 0 < len(reductions) == len({id(fields) for fields in reductions}) < steps
        assert (sum(fills), len(fills)) == (steps, steps + len(reductions))

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_rates_never_read_differences_of_another_state(self, scheme):
        # the rates consume the differences in the workspace, and another
        # state's differences overwrite them: each is taken again when needed
        grid = Grid((7, 6))
        params = (Params(alpha=0.7, kappa=1.0),)
        control = StepControl(scheme=scheme)
        first, second = (State.from_fields(initial_condition_preset(
            "random-smooth", grid, 1.0, seed=seed).fields[None], [0.0]) for seed in (1, 2))
        expected = single_rates(State.from_fields(first.fields[0]), params[0], grid, scheme)
        plan = stepper_module._Plan(params, grid, control, first.fields.shape)
        dt = plan.step_sizes(first)
        plan.step_sizes(second)
        np.testing.assert_array_equal(stepper_module._rates(first, plan)[0], expected)
        np.testing.assert_array_equal(stepper_module._rates(first, plan)[0], expected)
        assert plan.step_sizes(first) == dt


class TestBorderedFaces:
    """Both schemes lay every axis's bordered array out alike: with s the
    axis's stride, b[s + j] is the face above cell j of the rows the plan
    differences, every field's under explicit-euler and each member's v
    alone under imex."""

    @staticmethod
    def assert_bordered(plan, fields, shape):
        # each array's first s faces and its faces above every row's last
        # cell are exact zeros; the others are the rows' differences
        rows = fields if plan.explicit else fields[:, 1:2]
        for axis, b in enumerate(plan.bordered):
            s = math.prod(shape[axis + 1:])
            assert b.size == rows.size + s
            faces = b[s:].reshape(rows.shape)  # the face above each cell
            np.testing.assert_array_equal(b[:s], 0.0)
            np.testing.assert_array_equal(np.take(faces, -1, axis + 2), 0.0)
            np.testing.assert_array_equal(np.delete(faces, -1, axis + 2),
                                          np.diff(rows, axis=axis + 2))

    @staticmethod
    def planned(shape, scheme):
        params = (Params(alpha=0.8, kappa=0.7, coeffs=MIXED),
                  Params(alpha=1.5, kappa=0.7, coeffs=MIXED))
        grid, control = Grid(shape), StepControl(scheme=scheme)
        return params, grid, control, stepper_module._Plan(params, grid, control, (2, 3) + shape)

    @pytest.mark.parametrize("shape", [(6, 5, 4), (5, 4, 3, 3)])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_faces_beyond_the_rows_are_zero(self, shape, scheme):
        # also once an earlier state's fluxes were built in the arrays
        rng = np.random.default_rng(len(shape))
        plan = self.planned(shape, scheme)[-1]
        first, second = (rng.uniform(0.5, 2.0, (2, 3) + shape) for _ in range(2))
        stepper_module._rates(State.from_fields(first, [0.0, 0.0]), plan)
        stepper_module._differences(State.from_fields(second, [0.0, 0.0]), plan)
        self.assert_bordered(plan, second, shape)

    @pytest.mark.parametrize("shape", [(6, 5, 4), (5, 4, 3, 3)])
    def test_zero_faces_restored_after_the_imex_solve(self, shape):
        # the imex solve lays its scratch over the bordered arrays, zero
        # faces included; the next state's differences zero them again
        rng = np.random.default_rng(len(shape))
        params, grid, control, plan = self.planned(shape, "imex")
        state = State.from_fields(rng.uniform(0.5, 2.0, (2, 3) + shape), [0.0, 0.0])
        state.memo["plan"] = plan
        new = step(state, params, grid, plan.step_sizes(state), control)
        assert new.memo["plan"] is plan
        assert plan.bordered[0][:math.prod(shape[1:])].any()  # the solve wrote over them
        stepper_module._differences(new, plan)
        self.assert_bordered(plan, new.fields, shape)


class TestContiguousFaceKernels:
    """The face kernels run on each member's contiguous row of the faces
    above its first N - s cells, the zero faces where a row crosses from
    one slab of the axis to the next included: bit for bit the references,
    and every zero face stays +0.0."""

    @staticmethod
    def ensemble(shape):
        # distinct alphas; the middle member's v is constant, and the steepest
        # face of the others' v is their last one, on the last axis.  Unit
        # decays: decays*fields would go to imex's spare, over the bordered arrays
        rng = np.random.default_rng(len(shape))
        params = tuple(Params(alpha=alpha, kappa=0.7) for alpha in (0.8, 0.0, 2.0))
        fields = rng.uniform(0.5, 2.0, (3, 3) + shape)
        fields[1, 1] = 0.5
        for member, rise in ((0, 3.0), (2, 5.0)):
            v = fields[member, 1]
            v[..., -1] += rise
            v[(-1,) * len(shape)] += rise
        return params, Grid(shape), fields

    @pytest.mark.parametrize("shape", [(8, 4, 16), (4, 8, 4, 8)])  # spacings of 2^-k
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_bit_for_bit_the_references(self, shape, scheme):
        params, grid, fields = self.ensemble(shape)
        plan = stepper_module._Plan(params, grid, StepControl(scheme=scheme), fields.shape)
        state = State.from_fields(fields, [0.0] * 3)
        gmax = stepper_module._gradient_max(state, plan)
        rates = stepper_module._rates(state, plan)  # on the same differences
        for k, (member, p) in enumerate(zip(fields, params)):
            u, v, w = member
            steepest = [np.abs(np.diff(v, axis=a)).max() / h for a, h in enumerate(grid.spacing)]
            assert gmax[k] == max(steepest)
            assert k == 1 or steepest.index(max(steepest)) == grid.ndim - 1
            if scheme == "imex":
                # -div(phi_up grad v) and the kinetics, in _rates' order
                want = -chemotaxis_divergence(u, v, grid, p.alpha)
                want -= u * w
                want += p.kappa
                want -= u
                np.testing.assert_array_equal(rates[k, 0], want)
        # the first s faces and those above each row's last cell on the axis
        rows = fields if plan.explicit else fields[:, 1:2]
        for axis, b in enumerate(plan.bordered):
            s = math.prod(shape[axis + 1:])
            for zeros in (b[:s], np.take(b[s:].reshape(rows.shape), -1, axis + 2)):
                assert (zeros == 0.0).all() and not np.signbit(zeros).any()
