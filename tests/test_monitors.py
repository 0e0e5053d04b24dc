import csv
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

import chemovir.grid as grid_module
import chemovir.monitors as monitors_module
import chemovir.stepper as stepper_module
from chemovir.grid import Grid, State, lp_norm
from chemovir.model import Coefficients, ExponentInfeasibleError, Params, select_energy_exponent
from chemovir.monitors import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    check_u_mass_bound,
    check_v_mass_bound,
    classify_boundedness,
    compute_record,
    energy_plateau_exceedance,
    mass_identity_residual,
    write_diagnostics_csv,
)
from chemovir.stepper import StepControl, run
from chemovir.sweep import initial_condition_preset
from oracles import grad_norm_sq, integrate, quasi_energy


def make_record(t=0.0, sup_u=1.0, energy=0.0):
    return DiagnosticsRecord(t=t, mass_u=0.0, mass_v=0.0, mass_w=0.0,
                             sup_u=sup_u, sup_v=0.0, sup_w=0.0, lp_u=0.0,
                             grad_v_sq=0.0, grad_w_sq=0.0, energy=energy,
                             mass_identity_residual=0.0, u_bound_slack=0.0,
                             v_bound_slack=0.0)


def read_records(path):
    """The records of a diagnostics CSV, read back with the csv module."""
    with open(path, newline="") as handle:
        return [DiagnosticsRecord(**{name: float(value) for name, value in row.items()})
                for row in csv.DictReader(handle)]


class TestQuasiEnergy:
    """The oracle's F on states whose value is known; compute_record's energies
    are tested against it."""

    def test_constant_fields_p2(self):
        grid = Grid((16,))
        state = State(grid.new_field(1.0), grid.new_field(1.0), grid.new_field(0.0))
        assert quasi_energy(state, 2.0, grid) == pytest.approx(1.75, rel=1e-13)

    def test_zero_state(self):
        grid = Grid((8, 8))
        state = State(grid.new_field(0.0), grid.new_field(0.0), grid.new_field(0.0))
        assert quasi_energy(state, 1.5, grid) == 0.0

    def test_with_linear_w(self):
        grid = Grid((32,))
        state = State(grid.new_field(2.0), grid.new_field(0.0), grid.cell_centers(0))
        assert quasi_energy(state, 2.0, grid) == pytest.approx(3.0, rel=1e-12)

    def test_nonnegative_and_zero_only_at_zero(self):
        rng = np.random.default_rng(21)
        grid = Grid((12,))
        for _ in range(20):
            state = State(rng.uniform(0, 2, 12), rng.uniform(0, 2, 12), rng.uniform(0, 2, 12))
            value = quasi_energy(state, 1.75, grid)
            assert value >= 0.0
            if state.u.max() > 0 or state.v.max() > 0:
                assert value > 0.0


class TestMassIdentityResidual:
    def test_zero_at_initial_time(self):
        assert mass_identity_residual(0.7, 0.3, 0.0, 1.0, 2.0, 1.0) == 0.0

    def test_pure_decay_kappa_zero(self):
        t = 1.3
        expected_mass = 2.0 * math.exp(-t)
        residual = mass_identity_residual(expected_mass, 0.0, t, 2.0, 0.0, 1.0)
        assert residual == pytest.approx(0.0, abs=1e-15)

    def test_source_at_log_two(self):
        # kappa = 1, |O| = 1, M0 = 0: expected mass at t = ln 2 is 1/2
        t = math.log(2.0)
        residual = mass_identity_residual(0.7, 0.0, t, 0.0, 1.0, 1.0)
        assert residual == pytest.approx(0.2, rel=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            mass_identity_residual(0.0, 0.0, -1.0, 0.0, 0.0, 1.0)


class TestDecayAwareOracles:
    def test_unit_decay_matches_plain_formula_bitwise(self):
        t, m0, kappa, volume = 0.37, 1.3, 0.8, 2.5
        relaxed = math.exp(-t) * m0 + kappa * volume * (1.0 - math.exp(-t))
        assert mass_identity_residual(0.9, 0.6, t, m0, kappa, volume) == 1.5 - relaxed
        assert check_u_mass_bound(0.9, m0, kappa, volume, t) == relaxed - 0.9
        assert check_v_mass_bound(0.6, m0, kappa, volume, t) == relaxed - 0.6

    def test_decay_rate_enters_identity(self):
        # M' = kappa|O| - 3 M from M0 = 2: M(t) = 2 e^{-3t} + kappa (1 - e^{-3t}) / 3
        t = 0.4
        mass = 2.0 * math.exp(-3.0 * t) + 1.5 * (1.0 - math.exp(-3.0 * t)) / 3.0
        assert mass_identity_residual(mass, 0.0, t, 2.0, 1.5, 1.0, decay=3.0) == \
            pytest.approx(0.0, abs=1e-15)
        assert check_u_mass_bound(mass, 2.0, 1.5, 1.0, t, decay=3.0) == \
            pytest.approx(0.0, abs=1e-15)

    def test_run_with_equal_decays_meets_identity(self):
        grid = Grid((32,))
        params = Params(alpha=1.0, kappa=1.0, coeffs=Coefficients(decay_u=3.0, decay_v=3.0))
        initial = initial_condition_preset("random-smooth", grid, 1.0, seed=1)
        result = run(initial, params, grid, StepControl(scheme="explicit-euler"),
                     t_end=0.5, monitor_every=0.1)
        assert max(abs(r.mass_identity_residual) for r in result.records) <= 1e-3
        assert min(min(r.u_bound_slack, r.v_bound_slack) for r in result.records) >= 0.0

    def test_unequal_decays_report_nan_residual(self):
        grid = Grid((16,))
        params = Params(alpha=1.0, kappa=1.0, coeffs=Coefficients(decay_u=0.5, decay_v=2.0))
        initial = initial_condition_preset("random-smooth", grid, 1.0, seed=4)
        result = run(initial, params, grid, StepControl(), t_end=0.5, monitor_every=0.1)
        assert all(math.isnan(r.mass_identity_residual) for r in result.records)
        assert min(min(r.u_bound_slack, r.v_bound_slack) for r in result.records) >= -1e-3


class TestMassBounds:
    def test_u_slack_zero_at_start(self):
        assert check_u_mass_bound(1.5, 1.5, 3.0, 1.0, 0.0) == 0.0

    def test_u_bound_pure_decay(self):
        # kappa = 0, initial mass 1: the bound at t = 1 is e^-1
        slack = check_u_mass_bound(0.0, 1.0, 0.0, 1.0, 1.0)
        assert slack == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_v_bound_uses_combined_mass(self):
        slack = check_v_mass_bound(0.0, 2.0, 0.0, 1.0, 0.0)
        assert slack == 2.0

    def test_slack_signs(self):
        assert check_u_mass_bound(5.0, 1.0, 0.0, 1.0, 0.5) < 0
        assert check_v_mass_bound(0.1, 1.0, 0.0, 1.0, 0.5) > 0


def reference_record(state, grid, params, p, first=None):
    """A record built field by field from the public helpers and the oracles.
    Its mass oracles relax from the masses of ``first``, its run's record at
    t = 0, or without it from the state's own."""
    c, t, kappa, volume = params.coeffs, state.t, params.kappa, grid.volume
    mass_u, mass_v = integrate(state.u, grid), integrate(state.v, grid)
    mass_u0, mass_uv0 = (mass_u, mass_u + mass_v) if first is None else (
        first.mass_u, first.mass_u + first.mass_v)
    if p is None:
        lp_u = energy = math.nan
    else:
        lp_u = lp_norm(state.u, grid, p)
        energy = quasi_energy(state, p, grid) if c == Coefficients() else math.nan
    if c.decay_u == c.decay_v:
        residual = mass_identity_residual(mass_u, mass_v, t, mass_uv0, kappa, volume, c.decay_u)
    else:
        residual = math.nan
    return DiagnosticsRecord(
        t, mass_u, mass_v, integrate(state.w, grid), lp_norm(state.u, grid, math.inf),
        lp_norm(state.v, grid, math.inf), lp_norm(state.w, grid, math.inf), lp_u,
        grad_norm_sq(state.v, grid), grad_norm_sq(state.w, grid), energy, residual,
        check_u_mass_bound(mass_u, mass_u0, kappa, volume, t, c.decay_u),
        check_v_mass_bound(mass_v, mass_uv0, kappa, volume, t, min(c.decay_u, c.decay_v)))


def record_values(records):
    return [tuple(vars(r).values()) for r in records]


class TestComputeRecord:
    # infeasible (0.5), repeated (1.4 twice), and p = 2.0 in 1D (1.4) and
    # 2D (1.25), for which numpy squares instead of calling pow
    ALPHAS = (0.5, 1.4, 1.4, 1.0, 1.25, 0.65, 2.0, 2.0)

    def ensemble(self, grid):
        # the members of a run share t, kappa and the coefficients at each record
        rng = np.random.default_rng(11)
        count = len(self.ALPHAS)
        fields = rng.uniform(0.0, 3.0, (count, 3) + grid.shape) ** 2
        times = [float(rng.uniform(0.0, 2.0))] * count
        params = [Params(alpha=a, kappa=1.5) for a in self.ALPHAS]
        exponents = []
        for alpha in self.ALPHAS:
            try:
                exponents.append(float(select_energy_exponent(alpha, grid.ndim)))
            except ExponentInfeasibleError:
                exponents.append(None)
        # each member's record at t = 0, of which only the masses are read
        firsts = [replace(make_record(), mass_u=m, mass_v=0.5 * m)
                  for m in rng.uniform(0.5, 2.0, count).tolist()]
        return State.from_fields(fields, times), params, exponents, firsts

    @pytest.mark.parametrize("shape", [(32,), (33,), (12, 9), (6, 5, 4)])
    def test_ensemble_equals_member_records(self, shape):
        grid = Grid(shape)
        state, params, exponents, firsts = self.ensemble(grid)
        records = compute_record(state, grid, params, exponents, firsts)
        singles, references = [], []
        for i, (p, exponent, first) in enumerate(zip(params, exponents, firsts)):
            member = State.from_fields(state.fields[i:i + 1], state.t[i:i + 1])
            singles += compute_record(member, grid, [p], [exponent], [first])
            references.append(reference_record(State.from_fields(state.fields[i], state.t[i]),
                                               grid, p, exponent, first))
        # bit for bit, NaN included
        np.testing.assert_array_equal(record_values(records), record_values(references))
        np.testing.assert_array_equal(record_values(singles), record_values(references))
        assert [type(r.t) for r in records] == [float] * len(records)
        assert math.isnan(records[0].lp_u) and math.isnan(records[0].energy)
        assert [math.isnan(r.energy) for r in records] == [e is None for e in exponents]
        assert all(math.isfinite(r.mass_identity_residual) for r in records)

    @pytest.mark.parametrize("shape", [(32,), (12, 9), (6, 5, 4)])
    @pytest.mark.parametrize("member, coeffs", [(3, Coefficients(decay_u=0.5, decay_v=2.0)),
                                                (6, Coefficients(d_u=0.5))],
                             ids=["unequal-decay", "d_u"])
    def test_member_under_overrides_equals_reference(self, shape, member, coeffs):
        grid = Grid(shape)
        state, params, exponents, firsts = self.ensemble(grid)
        p = Params(alpha=params[member].alpha, kappa=params[member].kappa, coeffs=coeffs)
        one = State.from_fields(state.fields[member:member + 1], state.t[member:member + 1])
        records = compute_record(one, grid, [p], exponents[member:member + 1],
                                 firsts[member:member + 1])
        reference = reference_record(State.from_fields(state.fields[member], state.t[member]),
                                     grid, p, exponents[member], firsts[member])
        np.testing.assert_array_equal(record_values(records), record_values([reference]))
        (record,) = records
        assert math.isnan(record.mass_identity_residual) == (coeffs.decay_u != coeffs.decay_v)
        assert math.isnan(record.energy) and math.isfinite(record.lp_u)

    def test_rejects_mismatched_members(self):
        grid = Grid((8,))
        state, params, exponents, firsts = self.ensemble(grid)
        with pytest.raises(ValueError, match="members"):
            compute_record(state, grid, params[1:], exponents, firsts)
        with pytest.raises(ValueError, match="members"):
            compute_record(state, grid, params, exponents, firsts[1:])
        with pytest.raises(ValueError, match="grid"):
            compute_record(state, Grid((9,)), params, exponents, firsts)

    def test_rejects_members_that_differ_in_time_kappa_or_coefficients(self):
        grid = Grid((8,))
        state, params, exponents, firsts = self.ensemble(grid)
        times = list(state.t)
        times[2] += 0.5
        with pytest.raises(ValueError, match="share t, kappa and the coefficients"):
            compute_record(State.from_fields(state.fields, times), grid, params, exponents,
                           firsts)
        for other in (Params(alpha=1.4, kappa=1.0),
                      Params(alpha=1.4, kappa=1.5, coeffs=Coefficients(decay_w=2.0))):
            with pytest.raises(ValueError, match="share t, kappa and the coefficients"):
                compute_record(state, grid, params[:2] + [other] + params[3:], exponents,
                               firsts)

    def test_rejects_an_exponent_at_most_one(self):
        grid = Grid((8,))
        state, params, exponents, firsts = self.ensemble(grid)
        exponents[3] = 1.0
        with pytest.raises(ValueError, match="energy exponent must exceed 1, got 1.0"):
            compute_record(state, grid, params, exponents, firsts)

    def test_sup_norms_equal_the_max_of_abs_bit_for_bit(self):
        # from the memoised extrema alone: signs, -0.0 (an all-zero field
        # reads 0.0, not -0.0) and NaN as np.abs(values).max() gives them
        grid = Grid((6, 5))
        state, params, exponents, firsts = self.ensemble(grid)
        values = np.random.default_rng(3).normal(size=state.fields.shape)
        values[0, 0] = -0.0
        values[0, 1] = -np.abs(values[0, 1])
        values[1, 2, 3, 1] = math.nan
        values[2, 0, 0, 0] = -math.inf
        records = compute_record(State.from_fields(values, state.t), grid, params,
                                 [None] * len(params), firsts)
        sups = [[r.sup_u, r.sup_v, r.sup_w] for r in records]
        np.testing.assert_array_equal(sups, np.abs(values).max(axis=(2, 3)))
        assert repr(sups[0][0]) == "0.0"

    @pytest.mark.parametrize("shape, members", [((32,), 16), ((40, 32, 24), 1)])
    def test_run_records_take_the_memoised_extrema(self, monkeypatch, shape, members):
        # every recorded state's extrema are memoised by then, at t = 0 by the
        # record itself for the step sizes to reuse: no record reduces again
        def forbidden(*args):
            raise AssertionError("a record reduced the fields for its sup norms")

        monkeypatch.setattr(grid_module, "_sup_norms", forbidden)
        assert not hasattr(monitors_module, "_sup_norms")  # no imported name escapes the patch
        recorded = []

        def recording(state, *args):
            records = compute_record(state, *args)
            recorded.append((state.fields, records))
            return records

        monkeypatch.setattr(stepper_module, "compute_record", recording)
        grid = Grid(shape)
        initials = [initial_condition_preset("random-smooth", grid, 2.0, seed=k)
                    for k in range(members)]
        params = [Params(alpha=0.8 + 0.1 * k, kappa=2.0) for k in range(members)]
        results = run(initials, params, grid, StepControl(), 0.5 if members > 1 else 0.1, 0.05)
        assert all(len(r.records) == len(recorded) for r in results)
        cells = tuple(range(2, 2 + grid.ndim))
        for fields, records in recorded:
            sups = [[r.sup_u, r.sup_v, r.sup_w] for r in records]
            np.testing.assert_array_equal(sups, np.abs(fields).max(axis=cells))

    def test_energy_disabled_under_coefficient_overrides(self):
        grid = Grid((16,))
        initial = initial_condition_preset("random-smooth", grid, 1.0, seed=2)
        for coeffs in (Coefficients(d_u=0.5), Coefficients(production=2.0),
                       Coefficients(decay_w=3.0)):
            result = run(initial, Params(alpha=2.0, kappa=1.0, coeffs=coeffs), grid,
                         StepControl(), t_end=0.2, monitor_every=0.1)
            assert all(math.isnan(r.energy) for r in result.records)
            assert all(math.isfinite(r.lp_u) for r in result.records)
        plain = run(initial, Params(alpha=2.0, kappa=1.0), grid, StepControl(), t_end=0.2,
                    monitor_every=0.1)
        assert all(math.isfinite(r.energy) for r in plain.records)


class TestRunRecords:
    """A run's records equal the references, each relaxing from its member's
    record at t = 0, bit for bit."""

    ALPHAS = (0.7, 1.5, 2.0)

    def recorded_run(self, monkeypatch, grid, initials, params, control, t_end):
        """The run's results and the states it recorded, with the members' exponents."""
        recorded = []

        def recording(state, grid_, params_, exponents, first):
            recorded.append((state.fields, list(state.t), exponents))
            return compute_record(state, grid_, params_, exponents, first)

        monkeypatch.setattr(stepper_module, "compute_record", recording)
        results = run(initials, params, grid, control, t_end, 0.1)
        monkeypatch.undo()
        return results, recorded

    def assert_references(self, results, recorded, grid, params):
        assert all(len(r.records) == len(recorded) for r in results)
        for n, (fields, times, exponents) in enumerate(recorded):
            for k, (result, p, exponent) in enumerate(zip(results, params, exponents)):
                state = State.from_fields(fields[k], times[k])
                first = result.records[0] if n else None
                np.testing.assert_array_equal(
                    record_values([result.records[n]]),
                    record_values([reference_record(state, grid, p, exponent, first)]))

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    @pytest.mark.parametrize("shape", [(17,), (12, 10), (6, 5, 4), (5, 4, 3, 3),
                                       (4, 3, 3, 3, 3)])
    def test_ensemble_and_single_runs(self, monkeypatch, shape, scheme):
        grid, control = Grid(shape), StepControl(scheme=scheme)
        initials = [initial_condition_preset("random-smooth", grid, 1.5, seed=k)
                    for k in range(len(self.ALPHAS))]
        params = [Params(alpha=alpha, kappa=1.5) for alpha in self.ALPHAS]
        results, recorded = self.recorded_run(monkeypatch, grid, initials, params, control, 0.2)
        self.assert_references(results, recorded, grid, params)
        for result, initial, p in zip(results, initials, params):
            single = run(initial, p, grid, control, 0.2, 0.1)
            np.testing.assert_array_equal(record_values(single.records),
                                          record_values(result.records))

    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    def test_unequal_decays_keep_the_residual_nan(self, monkeypatch, scheme):
        grid = Grid((16,))
        params = [Params(alpha=1.2, kappa=1.0, coeffs=Coefficients(decay_u=0.5, decay_v=2.0))]
        initials = [initial_condition_preset("random-smooth", grid, 1.0, seed=4)]
        results, recorded = self.recorded_run(monkeypatch, grid, initials, params,
                                              StepControl(scheme=scheme), 0.3)
        self.assert_references(results, recorded, grid, params)
        assert all(math.isnan(r.mass_identity_residual) for r in results[0].records)

    @pytest.mark.parametrize("kappa", [0.0, 1.5])
    def test_t_end_zero_relaxes_from_its_own_masses(self, kappa):
        grid = Grid((6, 5))
        initial = initial_condition_preset("random-smooth", grid, kappa, seed=2)
        result = run(initial, Params(alpha=1.0, kappa=kappa), grid, StepControl(), 0.0, 0.1)
        (record,) = result.records
        assert repr(record.mass_identity_residual) == repr(record.u_bound_slack) == "0.0"
        assert record.v_bound_slack == (record.mass_u + record.mass_v) - record.mass_v
        assert record.mass_u == integrate(initial.u, grid)

    def test_first_records_are_their_own_baseline(self):
        # at t = 0, relaxing from the state's own masses is relaxing from its records
        grid = Grid((12, 9))
        state, params, exponents, _ = TestComputeRecord().ensemble(grid)
        state = State.from_fields(state.fields, [0.0] * len(params))
        records = compute_record(state, grid, params, exponents)
        np.testing.assert_array_equal(
            record_values(records),
            record_values(compute_record(state, grid, params, exponents, records)))
        later = State.from_fields(state.fields, [0.5] * len(params))
        with pytest.raises(ValueError, match="t=0.5 relax from the members' first records"):
            compute_record(later, grid, params, exponents)


class TestClassifyBoundedness:
    def test_constant_trajectory_plateau(self):
        records = [make_record(t=float(k), sup_u=2.0) for k in range(12)]
        verdict = classify_boundedness(records)
        assert verdict.label == "bounded-plateau"
        assert verdict.peak_sup_u == 2.0
        assert verdict.tail_slope == pytest.approx(0.0, abs=1e-12)

    def test_doubling_trajectory_growing(self):
        # 2^10 = 1024 exceeds 10^3 * 1 + 1
        records = [make_record(t=float(k), sup_u=2.0 ** k) for k in range(11)]
        assert classify_boundedness(records).label == "growing"

    def test_doubling_ten_records_not_growing(self):
        # 2^9 = 512 stays below the trigger, but the tail still grows
        records = [make_record(t=float(k), sup_u=2.0 ** k) for k in range(10)]
        assert classify_boundedness(records).label == "inconclusive"

    def test_noisy_short_trajectory_inconclusive(self):
        records = [make_record(t=float(k), sup_u=math.exp(0.01 * k)) for k in range(12)]
        verdict = classify_boundedness(records)
        assert verdict.label == "inconclusive"
        assert verdict.tail_slope == pytest.approx(0.01, rel=1e-6)

    def test_decaying_trajectory_plateau(self):
        records = [make_record(t=float(k), sup_u=1.0 + math.exp(-k)) for k in range(20)]
        assert classify_boundedness(records).label == "bounded-plateau"

    def test_zero_trajectory_plateau(self):
        records = [make_record(t=float(k), sup_u=0.0) for k in range(12)]
        assert classify_boundedness(records).label == "bounded-plateau"

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            classify_boundedness([make_record(t=float(k)) for k in range(9)])

    def test_fixed_thresholds(self):
        def label(sup_u):
            return classify_boundedness([make_record(t=float(k), sup_u=sup_u(k))
                                         for k in range(20)]).label

        # growing once some sup_u exceeds 1e3 * sup_u(0) + 1
        assert label(lambda k: 1001.0 if k == 19 else 1.0) == "inconclusive"
        assert label(lambda k: 1001.5 if k == 19 else 1.0) == "growing"
        # a plateau when log(sup_u) rises at a slope below 1e-4 ...
        assert label(lambda k: math.exp(0.9e-4 * k)) == "bounded-plateau"
        assert label(lambda k: math.exp(1.1e-4 * k)) == "inconclusive"
        # ... over the final fifth of the records: the last 4 of 20
        assert label(lambda k: math.exp(0.01 * min(k, 16))) == "bounded-plateau"
        assert label(lambda k: math.exp(0.01 * min(k, 17))) == "inconclusive"


class TestEnergyPlateau:
    def test_decaying_energy_ok(self):
        records = [make_record(t=float(k), energy=10.0 * math.exp(-k)) for k in range(20)]
        assert energy_plateau_exceedance(records) <= 0.0

    def test_late_spike_flagged(self):
        records = [make_record(t=float(k), energy=1.0) for k in range(20)]
        records[-1].energy = 1.5
        assert energy_plateau_exceedance(records) == pytest.approx(0.5, rel=1e-12)

    def test_one_record_is_too_short(self):
        with pytest.raises(ValueError, match="^trajectory too short for a plateau window$"):
            energy_plateau_exceedance([make_record(energy=1.0)])

    def test_nan_energy_raises(self):
        records = [make_record(t=float(k), energy=math.nan) for k in range(20)]
        with pytest.raises(ValueError):
            energy_plateau_exceedance(records)


class TestDiagnosticsCsv:
    def test_file_mode_honours_umask(self, tmp_path):
        path = tmp_path / "diagnostics.csv"
        previous = os.umask(0o022)
        try:
            write_diagnostics_csv([make_record()], path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # the umask is process-wide: while it is changed, a file that another
        # thread creates gets the wrong mode
        def forbidden(mask):
            raise AssertionError("the write changed the process umask")

        monkeypatch.setattr(os, "umask", forbidden)
        write_diagnostics_csv([make_record()], tmp_path / "diagnostics.csv")
        assert os.listdir(tmp_path) == ["diagnostics.csv"]

    def test_header_schema(self):
        assert ",".join(CSV_COLUMNS) == (
            "t,mass_u,mass_v,mass_w,sup_u,sup_v,sup_w,lp_u,grad_v_sq,grad_w_sq,"
            "energy,mass_identity_residual,u_bound_slack,v_bound_slack")

    def test_round_trip(self, tmp_path):
        records = [make_record(t=0.0, sup_u=1.0, energy=0.25),
                   make_record(t=0.5, sup_u=1.5, energy=0.125)]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(records, path)
        loaded = read_records(path)
        assert loaded == records

    def test_nan_round_trip(self, tmp_path):
        record = make_record(t=0.0, energy=math.nan)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([record], path)
        loaded = read_records(path)
        assert math.isnan(loaded[0].energy)
