import concurrent.futures
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

import chemovir.sweep as sweep_module
from chemovir.grid import Grid
from chemovir.model import Coefficients, Params, alpha_threshold
from chemovir.monitors import classify_boundedness
from chemovir.stepper import StepControl, run
from chemovir.sweep import (
    SWEEP_CSV_COLUMNS,
    SweepSpec,
    initial_condition_preset,
    run_sweep,
)


class TestPresets:
    def test_steady_infection_free(self):
        grid = Grid((8,))
        state = initial_condition_preset("steady-infection-free", grid, 1.5)
        np.testing.assert_array_equal(state.u, 1.5)
        np.testing.assert_array_equal(state.v, 0.0)
        np.testing.assert_array_equal(state.w, 0.0)

    def test_constant(self):
        grid = Grid((8,))
        state = initial_condition_preset("constant", grid, 0.0, constants=(2.0, 1.0, 0.5))
        np.testing.assert_array_equal(state.u, 2.0)
        np.testing.assert_array_equal(state.v, 1.0)
        np.testing.assert_array_equal(state.w, 0.5)

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            initial_condition_preset("constant", Grid((8,)), 0.0, constants=(-1.0, 0.0, 0.0))

    def test_gaussian_bump_formula_1d(self):
        grid = Grid((64,))
        kappa = 1.0
        state = initial_condition_preset("gaussian-bump-v", grid, kappa)
        x = grid.cell_centers(0)
        np.testing.assert_allclose(state.v, np.exp(-50.0 * (x - 0.5) ** 2), rtol=1e-14)
        np.testing.assert_array_equal(state.u, kappa + 1.0)
        np.testing.assert_array_equal(state.w, 0.0)

    def test_gaussian_bump_maximum_at_center_2d(self):
        grid = Grid((32, 32))
        state = initial_condition_preset("gaussian-bump-v", grid, 0.0)
        assert state.v.max() <= 1.0
        peak = np.unravel_index(np.argmax(state.v), state.v.shape)
        assert peak == (15, 16) or peak == (16, 16) or peak == (15, 15) or peak == (16, 15)

    @pytest.mark.parametrize("ndim,shape", [(1, (16,)), (2, (8, 8)), (3, (4, 4, 4))])
    def test_random_smooth_nonnegative_and_seeded(self, ndim, shape):
        grid = Grid(shape)
        for seed in range(5):
            state = initial_condition_preset("random-smooth", grid, 0.5, seed=seed)
            assert state.u.min() >= 0.0
            assert state.v.min() >= 0.0
            assert state.w.min() >= 0.0
            again = initial_condition_preset("random-smooth", grid, 0.5, seed=seed)
            np.testing.assert_array_equal(state.u, again.u)
            np.testing.assert_array_equal(state.v, again.v)
        other = initial_condition_preset("random-smooth", grid, 0.5, seed=999)
        assert not np.array_equal(other.u,
                                  initial_condition_preset("random-smooth", grid, 0.5, 0).u)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            initial_condition_preset("vortex", Grid((8,)), 0.0)


def small_spec(**overrides):
    settings = dict(alphas=(2.0,), grid=Grid((16,)), kappa=1.0,
                    preset="gaussian-bump-v", t_end=2.0, monitor_every=0.2,
                    control=StepControl())
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSweepSpec:
    def test_rejects_empty_alphas(self):
        with pytest.raises(ValueError):
            small_spec(alphas=())

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            small_spec(alphas=(1.0, -0.5))

    @pytest.mark.parametrize("settings,name", [
        ({"alphas": (1.0, math.inf)}, "alphas"), ({"seeds": (0, -1)}, "seeds"),
        ({"t_end": math.inf}, "t_end"),
        ({"constants": (1.0, -1.0, 0.0)}, "const_v"), ({"preset": "vortex"}, "preset"),
        ({"seeds": ()}, "seeds"), ({"kappa": -1.0}, "kappa"), ({"kappa": math.nan}, "kappa"),
    ])
    def test_rejects(self, settings, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            small_spec(**settings)

    def test_rejects_sparse_cadence(self):
        with pytest.raises(ValueError, match="10 records"):
            small_spec(monitor_every=1.0)

    @pytest.mark.parametrize("t_end,monitor_every,records", [
        (2.07, 0.23, 10),  # 2.07 / 0.23 rounds to just below 9
        (0.85, 0.1, 10),  # t_end is the last target
        (0.8, 0.1, 9),
    ])
    def test_cadence_counts_the_records_of_the_run(self, t_end, monitor_every, records):
        grid = Grid((16,))
        initial = initial_condition_preset("gaussian-bump-v", grid, 1.0)
        result = run(initial, Params(alpha=2.0, kappa=1.0), grid, StepControl(), t_end,
                     monitor_every)
        assert len(result.records) == records
        if records < 10:
            with pytest.raises(ValueError, match="10 records"):
                small_spec(t_end=t_end, monitor_every=monitor_every)
        else:
            small_spec(t_end=t_end, monitor_every=monitor_every)


class TestRunSweep:
    def test_single_alpha_above_threshold(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.above_threshold is True
        assert row.p_feasible is True
        assert row.run_status == "completed"
        assert row.verdict == "bounded-plateau"

    def test_below_threshold_row_still_executes(self):
        result = run_sweep(small_spec(alphas=(0.1,), grid=Grid((8, 8)), t_end=2.0))
        row = result.rows[0]
        assert row.above_threshold is False
        assert row.p_feasible is False
        assert math.isnan(row.p_value)
        assert row.run_status == "completed"

    def test_threshold_flag_consistency(self):
        alphas = (0.5, 0.75, 0.7500000001, 1.0)
        result = run_sweep(small_spec(alphas=alphas, grid=Grid((8, 8))))
        threshold = alpha_threshold(2)
        for row in result.rows:
            assert row.above_threshold == (row.alpha > float(threshold))

    def test_alpha_one_float_step_above_threshold_3d(self):
        # Fraction(0.9090909090909092) > 10/11: the row is above the threshold,
        # so an exponent exists and the energy monitor runs
        alpha = 0.9090909090909092
        assert Fraction(alpha) > alpha_threshold(3)
        row = run_sweep(small_spec(alphas=(alpha,), grid=Grid((4, 4, 4)))).rows[0]
        assert row.above_threshold is True
        assert row.p_feasible is True
        assert math.isfinite(row.p_value)
        assert math.isfinite(row.energy_max)

    def test_steady_preset_rows_plateau_at_initial(self):
        spec = small_spec(alphas=(1.0, 2.0), preset="steady-infection-free", kappa=1.5)
        result = run_sweep(spec)
        for row in result.rows:
            assert row.verdict == "bounded-plateau"
            assert row.peak_sup_u == pytest.approx(1.5, rel=1e-12)

    def test_rows_sorted_by_key(self):
        spec = small_spec(alphas=(2.0, 1.0), seeds=(1, 0))
        result = run_sweep(spec)
        keys = [(row.alpha, row.seed) for row in result.rows]
        assert keys == sorted(keys)

    def test_parallel_identical_to_sequential(self):
        spec = small_spec(alphas=(1.0, 2.0), seeds=(0, 1), preset="random-smooth")
        sequential = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert sequential.to_csv_text() == parallel.to_csv_text()

    @pytest.mark.parametrize("grid", [Grid((32,)), Grid((33,)), Grid((6, 7))])
    def test_rows_equal_single_runs_for_any_job_count(self, grid):
        spec = small_spec(alphas=(0.5, 0.6, 0.65, 1.0, 2.0), seeds=(3, 1), grid=grid,
                          preset="random-smooth", kappa=2.0)
        expected = []
        for alpha in spec.alphas:
            for seed in sorted(spec.seeds):
                initial = initial_condition_preset(spec.preset, grid, spec.kappa, seed=seed)
                result = run(initial, Params(alpha=alpha, kappa=spec.kappa), grid, spec.control,
                             spec.t_end, spec.monitor_every)
                verdict = classify_boundedness(result.records)
                energies = [r.energy for r in result.records]
                # repr round-trips floats exactly and spells NaN one way
                energy_max = math.nan if result.energy_exponent is None else max(energies)
                expected.append((alpha, seed, verdict.label, repr(verdict.peak_sup_u),
                                 repr(energy_max)))
        for jobs in (1, 2, 3):
            rows = run_sweep(spec, jobs=jobs).rows
            assert [(r.alpha, r.seed, r.verdict, repr(r.peak_sup_u), repr(r.energy_max))
                    for r in rows] == expected
            assert [r.run_status for r in rows] == ["completed"] * len(expected)

    def test_large_grids_split_into_several_ensembles(self, monkeypatch):
        spec = small_spec(alphas=(0.5, 1.0, 2.0), seeds=(0, 1), preset="random-smooth")
        whole = run_sweep(spec).to_csv_text()
        sizes = []
        original = sweep_module.run

        def recording_run(initials, *args):
            sizes.append(len(initials))
            return original(initials, *args)

        monkeypatch.setattr(sweep_module, "run", recording_run)
        monkeypatch.setattr(sweep_module, "_MAX_ENSEMBLE_VALUES", 4 * 3 * spec.grid.n_cells)
        assert run_sweep(spec).to_csv_text() == whole
        assert sizes == [4, 2]

    @pytest.mark.parametrize("jobs,alphas,workers,own", [
        (1, (1.0, 2.0), [], [2]), (2, (1.0, 2.0), [1], [1]), (3, (0.5, 1.0, 2.0), [2], [1]),
    ])
    def test_caller_runs_the_first_ensemble_beside_its_workers(self, monkeypatch, jobs, alphas,
                                                              workers, own):
        # min(jobs, ensembles) - 1 worker processes; the caller runs the first ensemble
        spec = small_spec(alphas=alphas, preset="random-smooth", kappa=2.0)
        expected = run_sweep(spec).to_csv_text()
        started, sizes = [], []
        original_run = sweep_module.run

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        def recording_run(initials, *args):
            sizes.append(len(initials))  # in the workers too, but kept only here
            return original_run(initials, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep_module, "run", recording_run)
        assert run_sweep(spec, jobs=jobs).to_csv_text() == expected
        assert started == workers
        assert sizes == own

    def test_caller_takes_every_nth_of_many_ensembles(self, monkeypatch):
        # six one-row ensembles on two processes: the caller runs 0, 2 and 4
        spec = small_spec(alphas=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0), preset="random-smooth")
        expected = run_sweep(spec).to_csv_text()
        alphas = []
        original_run = sweep_module.run

        def recording_run(initials, params, *args):
            alphas.extend(p.alpha for p in params)
            return original_run(initials, params, *args)

        monkeypatch.setattr(sweep_module, "run", recording_run)
        monkeypatch.setattr(sweep_module, "_MAX_ENSEMBLE_VALUES", 3 * spec.grid.n_cells)
        assert run_sweep(spec, jobs=2).to_csv_text() == expected
        assert alphas == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="^jobs must"):
            run_sweep(small_spec(), jobs=jobs)

    def test_memory_holds_one_ensemble_at_a_time(self, monkeypatch):
        grid = Grid((64, 64))
        monkeypatch.setattr(sweep_module, "_MAX_ENSEMBLE_VALUES", 3 * grid.n_cells)

        def peak(seeds):
            spec = small_spec(alphas=(1.0, 1.5, 2.0, 2.5), seeds=seeds, grid=grid,
                              preset="random-smooth", t_end=0.09, monitor_every=0.01)
            tracemalloc.start()
            try:
                run_sweep(spec, jobs=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((0,))  # fills the operator caches
        assert peak(range(10)) <= 1.5 * peak((0,))

    def test_overflowing_rows_abort(self):
        # u*w overflows to inf for every dt (TestEnsemble in test_stepper
        # checks that the other members of an ensemble keep going)
        spec = small_spec(alphas=(1.0, 2.0), preset="constant", kappa=0.0,
                          constants=(1e308, 0.0, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_sweep(spec, jobs=2).rows
        assert [row.run_status for row in rows] == ["aborted", "aborted"]

    def test_uses_constants(self):
        spec = small_spec(alphas=(1.0,), preset="constant", kappa=0.0,
                          constants=(2.5, 0.0, 0.0))
        assert run_sweep(spec).rows[0].peak_sup_u == 2.5

    def test_classifies_with_the_fixed_thresholds(self):
        # u rises from 1 toward kappa = 2: inconclusive
        spec = small_spec(alphas=(1.0,), preset="constant", kappa=2.0)
        assert run_sweep(spec).rows[0].verdict == "inconclusive"

    def test_keeps_coefficient_overrides(self):
        coeffs = Coefficients(d_u=0.5, decay_w=2.0)
        spec = small_spec(coeffs=coeffs, preset="random-smooth", kappa=2.0)
        row = run_sweep(spec).rows[0]
        initial = initial_condition_preset(spec.preset, spec.grid, spec.kappa)
        direct = run(initial, Params(alpha=2.0, kappa=spec.kappa, coeffs=coeffs), spec.grid,
                     spec.control, spec.t_end, spec.monitor_every)
        assert row.peak_sup_u == classify_boundedness(direct.records).peak_sup_u
        plain = run_sweep(small_spec(preset="random-smooth", kappa=2.0)).rows[0]
        assert row.peak_sup_u != plain.peak_sup_u

    def test_energy_max_nan_under_coefficient_overrides(self):
        # the quasi-energy is derived for unit coefficients
        spec = small_spec(alphas=(1.0, 2.0), coeffs=Coefficients(d_w=2.0))
        rows = run_sweep(spec).rows
        assert all(row.p_feasible and math.isnan(row.energy_max) for row in rows)
        assert all(math.isfinite(row.energy_max) for row in run_sweep(small_spec()).rows)

    def test_csv_schema(self, tmp_path):
        result = run_sweep(small_spec())
        path = tmp_path / "sweep.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS) == (
            "alpha,seed,above_threshold,p_feasible,p_value,verdict,peak_sup_u,energy_max,"
            "run_status")
        assert len(lines) == 2
        first = lines[1].split(",")
        assert first[0] == repr(2.0)
        assert first[2] == "true"
        assert first[8] == "completed"
