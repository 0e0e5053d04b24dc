import math
from fractions import Fraction

import numpy as np
import pytest

import chemovir.stepper as stepper
from chemovir.discretization import _sensitivity, laplacian_neumann
from chemovir.grid import Grid, State
from chemovir.model import (
    Coefficients,
    ExponentInfeasibleError,
    Params,
    alpha_threshold,
    homogeneous_steady_states,
    select_energy_exponent,
)


def sensitivity(u, alpha):
    """The sensitivity the solver runs, phi(u) = u/(1+u)^alpha, for one alpha."""
    return _sensitivity(np.asarray(u, dtype=float), ((alpha, Ellipsis),))


def single_rates(state, params, grid, scheme):
    """stepper._rates of a single state, stepped as the ensemble of one member."""
    member = State.from_fields(state.fields[None], [state.t])
    plan = stepper._Plan((params,), grid, stepper.StepControl(scheme=scheme), member.fields.shape)
    return stepper._rates(member, plan)[0]


def kinetics(u, v, w, params):
    """stepper._rates on uniform fields under each scheme, checked to agree.

    A uniform v gives no chemotaxis and uniform fields no Laplacian, so the
    rates are exactly the kinetics: one (du, dv, dw) for both schemes.
    """
    grid = Grid((4,))
    state = State(*(grid.new_field(value) for value in (u, v, w)))
    first, *others = [single_rates(state, params, grid, scheme) for scheme in stepper.SCHEMES]
    for rates in others:
        np.testing.assert_array_equal(rates, first)
    assert (first == first[:, :1]).all()
    return tuple(float(rate) for rate in first[:, 0])


class TestChemotacticSensitivity:
    def test_zero_numerator(self):
        assert sensitivity(0.0, 0.7) == 0.0

    def test_half_at_one(self):
        assert sensitivity(1.0, 1.0) == 0.5

    def test_hand_evaluated(self):
        # 3 / (1+3)^0.5 = 3/2
        assert sensitivity(3.0, 0.5) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_bounds_small_alpha(self, alpha):
        u = np.linspace(0.0, 50.0, 400)
        phi = sensitivity(u, alpha)
        assert np.all(phi >= 0)
        assert np.all(phi <= u + 1e-15)
        positive = u > 0
        assert np.all(phi[positive] <= u[positive] ** (1.0 - alpha) + 1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_bounded_by_one_large_alpha(self, alpha):
        u = np.linspace(0.0, 1e4, 500)
        assert np.all(sensitivity(u, alpha) <= 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_monotone_for_alpha_up_to_one(self, alpha):
        u = np.linspace(0.0, 20.0, 1000)
        phi = sensitivity(u, alpha)
        assert np.all(np.diff(phi) >= -1e-14)


class TestReactionRates:
    def test_infection_free_equilibrium(self):
        params = Params(alpha=1.0, kappa=1.7)
        assert kinetics(1.7, 0.0, 0.0, params) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0, 5.0])
    def test_infected_equilibrium(self, kappa):
        # second root of the kinetics, exists for kappa >= 1
        params = Params(alpha=1.0, kappa=kappa)
        assert kinetics(1.0, kappa - 1.0, kappa - 1.0, params) == (0.0, 0.0, 0.0)

    def test_direct_evaluation(self):
        params = Params(alpha=1.0, kappa=0.0)
        assert kinetics(2.0, 1.0, 3.0, params) == (-8.0, 5.0, -2.0)

    def test_mass_budget_of_first_two(self):
        # u and w vary, v is uniform: no chemotaxis; explicit Euler adds lap(u)
        rng = np.random.default_rng(7)
        grid = Grid((50,))
        params = Params(alpha=0.5, kappa=1.3)
        u, w = rng.uniform(0, 3, (2, 50))
        v = grid.new_field(1.1)
        laplacian = laplacian_neumann(u, grid)
        for scheme, diffusion in (("imex", 0.0), ("explicit-euler", laplacian)):
            du, dv, _ = single_rates(State(u, v, w), params, grid, scheme)
            np.testing.assert_allclose(du + dv, params.kappa - u - v + diffusion, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(diffusion).max()))

    def test_coefficient_overrides(self):
        params = Params(alpha=1.0, kappa=2.0,
                        coeffs=Coefficients(decay_u=2.0, decay_v=3.0,
                                            decay_w=4.0, production=5.0))
        du, dv, dw = kinetics(1.0, 1.0, 1.0, params)
        assert du == -1.0 + 2.0 - 2.0
        assert dv == 1.0 - 3.0
        assert dw == 5.0 - 4.0


class TestAlphaThreshold:
    def test_exact_values_low_dimensions(self):
        assert alpha_threshold(1) == Fraction(3, 5)
        assert alpha_threshold(2) == Fraction(3, 4)
        assert alpha_threshold(3) == Fraction(1, 2) + Fraction(9, 22)
        assert alpha_threshold(4) == Fraction(15, 14)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 12])
    def test_quarter_branch(self, n):
        assert alpha_threshold(n) == Fraction(n, 4)

    def test_strictly_increasing(self):
        values = [alpha_threshold(n) for n in range(1, 17)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0, -1, 2.0, "2"])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(ValueError):
            alpha_threshold(bad)


class TestSelectEnergyExponent:
    # p = (lower + 2*alpha)/2, the midpoint of the admissible interval
    def test_example_alpha_one_n_two(self):
        # lower bound 3/2, upper bound 2
        assert select_energy_exponent(1.0, 2) == (Fraction(3, 2) + 2) / 2

    def test_example_alpha_1p2_n_four(self):
        # lower bound 1 + 16/14, upper bound 2*1.2 with 1.2 the float's exact value
        assert select_energy_exponent(1.2, 4) == (1 + Fraction(16, 14) + 2 * Fraction(1.2)) / 2

    def test_infeasible_below_threshold(self):
        with pytest.raises(ExponentInfeasibleError):
            select_energy_exponent(0.5, 2)

    def test_boundary_alpha_is_infeasible_exact(self):
        # the condition is strict, so alpha exactly at the threshold fails
        for n in range(1, 9):
            with pytest.raises(ExponentInfeasibleError):
                select_energy_exponent(alpha_threshold(n), n)

    def test_feasible_above_threshold_and_constraints_hold(self):
        for n in range(1, 9):
            threshold = float(alpha_threshold(n))
            for bump in (1e-9, 1e-6, 0.1, 1.0):
                alpha = threshold + bump
                p = select_energy_exponent(alpha, n)
                assert p > n / 2
                assert p > 1 + n * n / (3 * n + 2)
                assert p > max(1 - alpha, 0.0) * n / 2
                assert p > (1 + max(1 - alpha, 0.0)) / (1 + 1 / n)
                assert p <= 2 * alpha

    def test_exact_rational_path(self):
        # one exact path for int, float and Fraction alpha
        for alpha in (1, 1.0, Fraction(1)):
            exponent = select_energy_exponent(alpha, 2)
            assert type(exponent) is Fraction
            assert exponent == Fraction(7, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_feasible_exactly_above_threshold_at_float_neighbours(self, n):
        # the float path rounded p onto a bound, or misjudged feasibility,
        # within a few float steps of the threshold
        threshold = alpha_threshold(n)
        alphas = [threshold, threshold - Fraction(1, 10 ** 30), threshold + Fraction(1, 10 ** 30)]
        below = above = float(threshold)
        alphas.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            alphas += [below, above]
        for alpha in alphas:
            if Fraction(alpha) <= threshold:
                with pytest.raises(ExponentInfeasibleError):
                    select_energy_exponent(alpha, n)
            else:
                p = select_energy_exponent(alpha, n)
                assert 1 < p <= 2 * Fraction(alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="^alpha must"):
            select_energy_exponent(alpha, 2)


class TestHomogeneousSteadyStates:
    def test_kappa_zero(self):
        assert homogeneous_steady_states(0.0) == [(0.0, 0.0, 0.0)]

    def test_double_root_at_one(self):
        assert homogeneous_steady_states(1.0) == [(1.0, 0.0, 0.0)]

    def test_two_states_above_one(self):
        assert homogeneous_steady_states(2.0) == [(2.0, 0.0, 0.0), (1.0, 1.0, 1.0)]

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0, 3.0, 7.0])
    def test_states_annihilate_kinetics(self, kappa):
        params = Params(alpha=1.0, kappa=kappa)
        for u, v, w in homogeneous_steady_states(kappa):
            assert kinetics(u, v, w, params) == (0.0, 0.0, 0.0)


class TestParams:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            Params(alpha=-1.0)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            Params(alpha=1.0, kappa=-0.5)

    @pytest.mark.parametrize("build", [
        lambda: Params(alpha=float("inf")), lambda: Params(alpha=1.0, kappa=float("nan")),
        lambda: Coefficients(decay_w=float("inf")),
    ])
    def test_rejects_non_finite(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build()

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError, match="d_v"):
            Coefficients(d_v=0.0)
