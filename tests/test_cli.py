import csv
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import chemovir.cli as cli_module
import chemovir.sweep as sweep_module
from chemovir.cli import main
from chemovir.config import _SCHEMA, _key_values, parse_config
from chemovir.grid import read_snapshot, write_snapshot
from chemovir.stepper import NegativityDetected, UnstableRunError, run
from chemovir.sweep import SWEEP_CSV_COLUMNS, SweepResult, initial_condition_preset

SIMULATE_CONFIG = """
[model]
alpha = 1.0
kappa = 2.0
preset = steady-infection-free

[grid]
ndim = 1
cells = 16

[stepper]
t_end = 0.5

[monitors]
monitor_every = 0.1
"""


class TestThresholdCommand:
    def test_prints_exact_fraction_and_decimal(self, capsys):
        assert main(["threshold", "--n", "4"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "15/14 ≈ 1.0714285714285714"

    def test_integer_branch(self, capsys):
        assert main(["threshold", "--n", "8"]) == 0
        assert capsys.readouterr().out.strip() == "2 ≈ 2.0"

    def test_bad_dimension_exits_two(self, capsys):
        assert main(["threshold", "--n", "0"]) == 2


class TestSimulateCommand:
    def test_writes_diagnostics_and_snapshot(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        with open(out_dir / "diagnostics.csv", newline="") as handle:
            times = [float(row["t"]) for row in csv.DictReader(handle)]
        assert [round(t, 10) for t in times] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        state, grid = read_snapshot(out_dir / "final_state.cvf")
        assert state.t == 0.5
        assert grid.shape == (16,)
        assert float(state.u.max()) == pytest.approx(2.0, rel=1e-10)

    def test_snapshot_cadence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG + "snapshot_every = 0.2\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.glob("snapshot_*.cvf"))
        assert names == ["snapshot_t0.2.cvf", "snapshot_t0.4.cvf"]

    def test_tiny_snapshot_interval_returns(self, tmp_path):
        # the next snapshot time is computed, not counted up to in steps of
        # snapshot_every; a subprocess with a timeout fails instead of hanging
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG + "snapshot_every = 1e-12\n")
        import chemovir
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chemovir.__file__)))
        done = subprocess.run([sys.executable, "-m", "chemovir", "simulate", "--config",
                               str(config), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        # a snapshot at every record, t = 0 included
        assert len(list((tmp_path / "out").glob("snapshot_t*.cvf"))) == 6

    def test_final_state_formatted_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_write(path, state, grid):
            calls.append(os.path.basename(path))
            return write_snapshot(path, state, grid)

        monkeypatch.setattr(cli_module, "write_snapshot", counting_write)
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG + "snapshot_every = 0.25\n")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        assert calls == ["snapshot_t0.3.cvf", "snapshot_t0.5.cvf", "final_state.cvf"]
        assert (out_dir / "final_state.cvf").read_bytes() == \
               (out_dir / "snapshot_t0.5.cvf").read_bytes()
        assert (out_dir / "final_state.cvf").stat().st_mode == \
               (out_dir / "snapshot_t0.5.cvf").stat().st_mode

    def test_alpha_one_float_step_above_threshold_runs(self, tmp_path, capsys):
        # 3/4 is the 2D threshold; the float just above it once rounded p
        # onto the bound of its interval and exited 2
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG.replace("alpha = 1.0", "alpha = 0.7500000000000001")
                          .replace("ndim = 1\ncells = 16", "ndim = 2\ncells = 4, 4"))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0, \
            capsys.readouterr().err
        with open(out_dir / "diagnostics.csv", newline="") as handle:
            energies = [float(row["energy"]) for row in csv.DictReader(handle)]
        assert all(map(math.isfinite, energies))

    def test_oversized_cells_exit_two_citing_the_line(self, tmp_path, capsys):
        config, out_dir = tmp_path / "run.cfg", tmp_path / "out"
        config.write_text(SIMULATE_CONFIG.replace("cells = 16", "cells = 1e300"))
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: line 9: cells must")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_grid_beyond_memory_exits_two_with_its_cell_count(self, tmp_path, capsys, command):
        # 10^15 cells: within numpy's size limit, but no allocation succeeds
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG.replace("ndim = 1\ncells = 16", "ndim = 3\ncells = 100000")
                          .replace("t_end = 0.5", "t_end = 2.0") + "[sweep]\nalphas = 1.0\n")
        jobs = ["--jobs", "1"] if command == "sweep" else []
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")] + jobs) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cells: 1000000000000000 cells need more memory")
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unusable_out_exits_two(self, tmp_path, capsys, command, below):
        # --out names a regular file, or a path below one: no directory can be made
        config, taken = tmp_path / "run.cfg", tmp_path / "taken"
        config.write_text(SIMULATE_CONFIG.replace("t_end = 0.5", "t_end = 2.0")
                          + "[sweep]\nalphas = 1.0\n")
        taken.write_text("keep\n")
        out = taken / "out" if below else taken
        jobs = ["--jobs", "1"] if command == "sweep" else []
        assert main([command, "--config", str(config), "--out", str(out)] + jobs) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert taken.read_text() == "keep\n"

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_numerical_abort_exits_three(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text(SIMULATE_CONFIG)

        def exploding_run(*args, **kwargs):
            raise UnstableRunError(0.1, None, NegativityDetected("u", -1.0, 0.01))

        monkeypatch.setattr(cli_module, "run", exploding_run)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 3


class TestBeyondThreeAxes:
    """The threshold's n = 4 value and its n >= 5 branch, end to end."""

    CONFIG = ("[model]\nalpha = {alpha}\nkappa = 1.0\npreset = gaussian-bump-v\n"
              "[grid]\nndim = {ndim}\ncells = {cells}\n"
              "[stepper]\nt_end = 1.0\n[monitors]\nmonitor_every = 0.1\n")

    def test_simulate_on_four_axes(self, tmp_path):
        config, out_dir = tmp_path / "run.cfg", tmp_path / "out"
        config.write_text(self.CONFIG.format(alpha=1.5, ndim=4, cells=6))
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
        state, grid = read_snapshot(out_dir / "final_state.cvf")
        assert state.fields.shape == (3, 6, 6, 6, 6) and grid.shape == (6,) * 4
        assert state.t == 1.0

    def test_sweep_on_five_axes_follows_the_threshold(self, tmp_path):
        # alpha_threshold(5) = 5/4: 1.25 itself is not above it
        config, out_dir = tmp_path / "sweep.cfg", tmp_path / "out"
        config.write_text(self.CONFIG.format(alpha=1.0, ndim=5, cells=4)
                          + "[sweep]\nalphas = 1.0, 1.25, 1.5, 2.0\n")
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", "2"]) == 0
        with open(out_dir / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["alpha"] for row in rows] == ["1.0", "1.25", "1.5", "2.0"]
        for row in rows:
            above = float(row["alpha"]) > 1.25
            assert row["above_threshold"] == str(above).lower()
            assert row["run_status"] == "completed"
            assert math.isfinite(float(row["energy_max"])) == above


class TestSweepCommand:
    def test_writes_sweep_csv(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG.replace("t_end = 0.5", "t_end = 2.0")
                          + "\n[sweep]\nalphas = 1.0, 2.0\n")
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", "1"])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert len(lines) == 3

    def test_passes_coefficient_overrides(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli_module, "run_sweep",
                            lambda spec, jobs: specs.append(spec) or SweepResult([]))
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG.replace("kappa = 2.0", "kappa = 2.0\nd_u = 0.5")
                          .replace("t_end = 0.5", "t_end = 2.0") + "\n[sweep]\nalphas = 1.0\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert specs[0].coeffs.d_u == 0.5

    def sweep_rows(self, tmp_path, model_lines=""):
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG
                          .replace("preset = steady-infection-free",
                                   "preset = constant\n" + model_lines)
                          .replace("t_end = 0.5", "t_end = 2.0")
                          + "\n[sweep]\nalphas = 1.0\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    def test_sweep_uses_preset_constants(self, tmp_path):
        rows = self.sweep_rows(tmp_path, model_lines="const_u = 3.5")
        assert float(rows[0]["peak_sup_u"]) == 3.5

    def test_sweep_classifies_with_the_fixed_thresholds(self, tmp_path):
        # from u = 1, u rises toward kappa = 2: inconclusive
        assert self.sweep_rows(tmp_path)[0]["verdict"] == "inconclusive"

    def test_runs_without_alpha(self, tmp_path):
        # alpha is the one key a sweep does not read, so it need not be set
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG.replace("alpha = 1.0\n", "")
                          .replace("t_end = 0.5", "t_end = 2.0")
                          + "\n[sweep]\nalphas = 1.0, 2.0\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 0
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 3

    def test_sweep_without_alphas_exits_two(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "alphas" in capsys.readouterr().err

    def test_sweep_to_t_end_zero_exits_two_citing_t_end(self, tmp_path, capsys):
        # no monitor cadence can fit 10 records before t = 0: t_end is at fault
        config, out_dir = tmp_path / "sweep.cfg", tmp_path / "out"
        config.write_text(SIMULATE_CONFIG.replace("t_end = 0.5", "t_end = 0")
                          + "\n[sweep]\nalphas = 1.0\n")
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 2
        assert capsys.readouterr().err == "error: line 12: t_end must satisfy t_end > 0, got 0.0\n"
        assert not out_dir.exists()


def other_value(kind, default):
    """A valid value of a key other than its default (SWEEP_BASE's, for alpha and alphas)."""
    if kind == "str":
        return {"gaussian-bump-v": "constant", "imex": "explicit-euler", "out": "elsewhere"}[default]
    values = default if isinstance(default, tuple) else (default,)
    # ints step up (ndim 2, 65 cells, seed 1); positive floats halve, which
    # keeps cfl_advect below 1; zeros become 0.5
    return ", ".join(str(v + 1 if isinstance(v, int) else v / 2 if v > 0 else 0.5)
                     for v in values)


SWEEP_BASE = "[model]\nalpha = 1.0\n[sweep]\nalphas = 1.0\n"


class TestEveryKeyReachesBothCommands:
    """A key reaches a command when a value other than its default changes
    what the command uses: simulate's arguments to run and to the preset,
    sweep's spec for run_sweep, and the files either writes."""

    # the keys that one command alone reads, exempt from reaching both;
    # out_dir, the default for --out, reaches both
    SIMULATE_ONLY = {"alpha", "seed", "snapshot_every"}
    SWEEP_ONLY = {"alphas", "seeds"}

    def used(self, tmp_path, monkeypatch, command, text):
        """What the command, run without --out in a fresh directory, uses of the config."""
        calls = []

        def recording_run(initial, params, grid, control, t_end, monitor_every, on_record):
            calls.append(("run", params, grid, control, t_end, monitor_every))
            # the run itself stops by t = 0.5, which keeps explicit Euler short
            return run(initial, params, grid, control, min(t_end, 0.5), monitor_every,
                       on_record=on_record)

        def recording_preset(*args, **kwargs):
            calls.append(("preset", args, kwargs))
            return initial_condition_preset(*args, **kwargs)

        monkeypatch.setattr(cli_module, "run", recording_run)
        monkeypatch.setattr(sweep_module, "initial_condition_preset", recording_preset)
        monkeypatch.setattr(cli_module, "run_sweep",
                            lambda spec, jobs: calls.append(("sweep", spec)) or SweepResult([]))
        workdir = tmp_path / f"{command}-{len(list(tmp_path.iterdir()))}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main([command, "--config", str(config)]) == 0
        return calls, sorted(str(path.relative_to(workdir)) for path in workdir.rglob("*"))

    @pytest.mark.parametrize("section,key", [(section, key) for section, keys in _SCHEMA.items()
                                             for key in keys])
    def test_non_default_value_reaches(self, tmp_path, monkeypatch, section, key):
        kind, default = _SCHEMA[section][key], _key_values(parse_config(SWEEP_BASE))[key]
        text = SWEEP_BASE + f"[{section}]\n{key} = {other_value(kind, default)}\n"
        text = text.replace(f"{key} = 1.0\n", "", 1) if key in ("alpha", "alphas") else text
        assert parse_config(text) != parse_config(SWEEP_BASE)
        for command, exempt in (("simulate", self.SWEEP_ONLY), ("sweep", self.SIMULATE_ONLY)):
            changed = self.used(tmp_path, monkeypatch, command, text)
            base = self.used(tmp_path, monkeypatch, command, SWEEP_BASE)
            assert (changed != base) == (key not in exempt), command


class TestStepCollapse:
    """A dt that cannot advance the time is a numerical abort.

    With explicit Euler on 16 cells, lengths 1e-170 make the diffusion cap
    underflow to 0 and lengths 1e-160 make it 1e-323.  Run in a subprocess
    with a timeout, so that a run that never returns fails the test.
    """

    def chemovir(self, tmp_path, command, length, *extra):
        text = (SIMULATE_CONFIG.replace("cells = 16", f"cells = 16\nlengths = {length}")
                .replace("t_end = 0.5", "scheme = explicit-euler\nt_end = 2.0"))
        config = tmp_path / "run.cfg"
        config.write_text(text + "[sweep]\nalphas = 1.0, 2.0\n")
        import chemovir
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chemovir.__file__)))
        return subprocess.run([sys.executable, "-m", "chemovir", command, "--config",
                               str(config), "--out", str(tmp_path / "out"), *extra],
                              env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("length", ["1e-170", "1e-160"])
    def test_simulate_exits_three(self, tmp_path, length):
        done = self.chemovir(tmp_path, "simulate", length)
        assert done.returncode == 3
        assert "numerical abort" in done.stderr and "too small to advance t" in done.stderr

    @pytest.mark.parametrize("length", ["1e-170", "1e-160"])
    def test_sweep_rows_abort(self, tmp_path, length):
        assert self.chemovir(tmp_path, "sweep", length, "--jobs", "1").returncode == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["aborted", "aborted"]


class TestExtremeConfigs:
    """Every accepted config ends in a documented exit code: 0, 2 or 3.

    Values at the edge of the floats: a kappa whose u makes the advective
    damping (1 + min u)^-alpha underflow to 0, a w whose reaction cap is
    below an ulp of t, constants whose products overflow, and lengths whose
    spacing squared is subnormal or huge.  Each call runs in-process within
    a budget of 1 s; all 28 take about 0.2 s together.
    """

    CONFIGS = {
        "kappa-1e200-alpha-2": "alpha = 2.0\nkappa = 1e200\n",
        "kappa-1e300-alpha-0": "alpha = 0.0\nkappa = 1e300\n",
        "kappa-1e300-alpha-2": "alpha = 2.0\nkappa = 1e300\n",
        "const_w-1e18": "alpha = 1.0\npreset = constant\nconst_w = 1e18\n",
        "constants-1e300": "alpha = 1.0\npreset = constant\n"
                           "const_u = 1e300\nconst_v = 1e300\nconst_w = 1e300\n",
        "lengths-1e-160": "alpha = 1.0\nkappa = 1.0\n[grid]\nlengths = 1e-160\n",
        "lengths-1e150": "alpha = 1.0\nkappa = 1.0\n[grid]\nlengths = 1e150\n",
    }

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("scheme", ["imex", "explicit-euler"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_exit_code(self, tmp_path, capsys, name, scheme, command):
        config = tmp_path / "run.cfg"
        config.write_text(f"[model]\n{self.CONFIGS[name]}[grid]\ncells = 16\n"
                          f"[stepper]\nscheme = {scheme}\nt_end = 1.0\n"
                          "[monitors]\nmonitor_every = 0.1\n[sweep]\nalphas = 0.5, 2.0\n")
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        start = time.perf_counter()
        with np.errstate(all="ignore"):
            status = main(args + (["--jobs", "1"] if command == "sweep" else []))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert status in (0, 2, 3), err
        assert err == "" if status == 0 else err.count("\n") == 1
        assert elapsed < 1.0


class TestVerifyCommand:
    def test_steady_suite_passes(self, capsys):
        assert main(["verify", "--suite", "steady"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "--suite", "everything"]) == 2


class TestJobsResolution:
    def test_default_is_cpu_count(self):
        args = cli_module._build_parser().parse_args(["sweep", "--config", "sweep.cfg"])
        assert args.jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_exits_two(self, tmp_path, capsys, jobs):
        config = tmp_path / "sweep.cfg"
        config.write_text(SIMULATE_CONFIG.replace("t_end = 0.5", "t_end = 2.0")
                          + "\n[sweep]\nalphas = 1.0\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--jobs", jobs]) == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


class TestUsage:
    def test_no_arguments_exits_two(self):
        assert main([]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert main(["explode"]) == 2

    def test_import_does_not_load_scipy(self):
        # the package depends on numpy alone; scipy would add start-up time
        # and memory to every command
        import chemovir
        source_root = os.path.dirname(os.path.dirname(chemovir.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        probe = "import sys, chemovir; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_import_does_not_load_the_process_pool(self):
        # only a sweep that fans out needs it; it adds about 1 MB to any other run
        import chemovir
        source_root = os.path.dirname(os.path.dirname(chemovir.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        probe = ("import sys, chemovir; "
                 "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
