import math
import os
import stat

import numpy as np
import pytest

from chemovir.grid import Grid, State
from chemovir.model import Coefficients, Params
from chemovir.monitors import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    check_u_mass_bound,
    check_v_mass_bound,
    classify_boundedness,
    energy_plateau_exceedance,
    mass_identity_residual,
    quasi_energy,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from chemovir.stepper import StepControl, run
from chemovir.sweep import initial_condition_preset


def make_record(t=0.0, sup_u=1.0, energy=0.0):
    return DiagnosticsRecord(t=t, mass_u=0.0, mass_v=0.0, mass_w=0.0,
                             sup_u=sup_u, sup_v=0.0, sup_w=0.0, lp_u=0.0,
                             grad_v_sq=0.0, grad_w_sq=0.0, energy=energy,
                             mass_identity_residual=0.0, u_bound_slack=0.0,
                             v_bound_slack=0.0)


class TestQuasiEnergy:
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

    def test_rejects_p_at_most_one(self):
        grid = Grid((8,))
        state = State(grid.new_field(1.0), grid.new_field(0.0), grid.new_field(0.0))
        with pytest.raises(ValueError):
            quasi_energy(state, 1.0, grid)

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

    def test_thresholds_configurable(self):
        records = [make_record(t=float(k), sup_u=1.0 + 0.5 * k) for k in range(12)]
        assert classify_boundedness(records, growth_factor=3.0).label == "growing"


class TestEnergyPlateau:
    def test_decaying_energy_ok(self):
        records = [make_record(t=float(k), energy=10.0 * math.exp(-k)) for k in range(20)]
        assert energy_plateau_exceedance(records) <= 0.0

    def test_late_spike_flagged(self):
        records = [make_record(t=float(k), energy=1.0) for k in range(20)]
        records[-1].energy = 1.5
        assert energy_plateau_exceedance(records) == pytest.approx(0.5, rel=1e-12)

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

    def test_header_schema(self):
        assert ",".join(CSV_COLUMNS) == (
            "t,mass_u,mass_v,mass_w,sup_u,sup_v,sup_w,lp_u,grad_v_sq,grad_w_sq,"
            "energy,mass_identity_residual,u_bound_slack,v_bound_slack")

    def test_round_trip(self, tmp_path):
        records = [make_record(t=0.0, sup_u=1.0, energy=0.25),
                   make_record(t=0.5, sup_u=1.5, energy=0.125)]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(records, path)
        loaded = read_diagnostics_csv(path)
        assert loaded == records

    def test_nan_round_trip(self, tmp_path):
        record = make_record(t=0.0, energy=math.nan)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([record], path)
        loaded = read_diagnostics_csv(path)
        assert math.isnan(loaded[0].energy)
