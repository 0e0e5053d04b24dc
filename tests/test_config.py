import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import chemovir
from chemovir.cli import main
from chemovir.config import (_SCHEMA, Config, ConfigError, _key_values, config_to_text,
                             load_config, parse_config)
from chemovir.sweep import SweepSpec

MINIMAL = """
[model]
alpha = 1.0

[grid]
ndim = 1
cells = 64
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        config = parse_config(MINIMAL)
        assert config.alpha == 1.0
        assert config.kappa == 0.0
        assert config.coeffs.d_u == 1.0
        assert config.grid.shape == (64,)
        assert config.grid.lengths == (1.0,)
        assert config.control.scheme == "imex"
        assert config.control.dt_max == 0.05
        assert config.t_end == 5.0
        assert config.monitor_every == 0.1
        assert config.preset == "gaussian-bump-v"
        assert config.alphas is None

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n[model]\nalpha = 2.0  # inline\n\n[grid]\ncells = 8\n"
        assert parse_config(text).alpha == 2.0

    def test_cells_broadcast_over_ndim(self):
        text = "[model]\nalpha = 1.0\n[grid]\nndim = 2\ncells = 32\n"
        assert parse_config(text).grid.shape == (32, 32)

    def test_cells_per_axis(self):
        text = "[model]\nalpha = 1.0\n[grid]\nndim = 2\ncells = 32, 16\nlengths = 1.0, 2.0\n"
        config = parse_config(text)
        assert config.grid.shape == (32, 16)
        assert config.grid.lengths == (1.0, 2.0)

    @pytest.mark.parametrize("line,key,value", [
        ("[model]\nseed = 9007199254740993", "seed", 9007199254740993),  # above 2**53
        ("[grid]\ncells = 64.0", "cells", (64,)),
        ("[sweep]\nseeds = 1.0, 2", "seeds", (1, 2)),
    ], ids=["exact-seed", "whole-float-cells", "whole-float-seeds"])
    def test_ints_follow_one_rule(self, line, key, value):
        # exact by int(), or from a whole-valued float, alone or in a list
        config = parse_config(MINIMAL.replace("cells = 64\n", "") + line + "\n")
        parsed = config.grid.shape if key == "cells" else getattr(config, key)
        assert parsed == value
        assert all(type(v) is int for v in (parsed if isinstance(parsed, tuple) else (parsed,)))

    def test_seeds_have_one_default(self):
        # Config takes the default of seeds from SweepSpec, the only place it is stated
        config_field, = (f for f in fields(Config) if f.name == "seeds")
        sweep_field, = (f for f in fields(SweepSpec) if f.name == "seeds")
        assert config_field.default is sweep_field.default
        spec = parse_config(MINIMAL + "[sweep]\nalphas = 1.0\n").sweep_spec()
        assert spec.seeds == sweep_field.default

    def test_sweep_section(self):
        text = MINIMAL + "\n[sweep]\nalphas = 0.8, 1.0, 1.5\nseeds = 0, 1\n"
        config = parse_config(text)
        assert config.alphas == (0.8, 1.0, 1.5)
        assert config.seeds == (0, 1)


class TestErrors:
    def test_missing_alpha(self, tmp_path, capsys):
        # the sweep reads no alpha, so a config may leave it out; simulate needs it
        text = "[grid]\ncells = 8\n"
        assert parse_config(text).alpha is None
        path, out_dir = tmp_path / "run.cfg", tmp_path / "out"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 2
        assert "missing required key 'alpha' in section [model]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_alpha_names_constraint(self):
        with pytest.raises(ConfigError, match=r"line 2: alpha must satisfy alpha >= 0"):
            parse_config("[model]\nalpha = -1\n")

    def test_duplicate_key_cites_both_lines(self):
        text = "[model]\nalpha = 1.0\nalpha = 2.0\n"
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'alpha'.*line 2"):
            parse_config(text)

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'alpa'"):
            parse_config("[model]\nalpa = 1.0\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_config("[modle]\nalpha = 1.0\n")

    def test_type_mismatch_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: key 'alpha' expects float"):
            parse_config("[model]\nalpha = fast\n")

    def test_int_list_rejects_a_fraction(self):
        with pytest.raises(ConfigError, match=r"line 4: key 'cells' expects list of int, got '4.5'"):
            parse_config("[model]\nalpha = 1.0\n[grid]\ncells = 4.5\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("alpha = 1.0\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
            parse_config("[model]\nalpha 1.0\n")

    def test_bad_scheme(self):
        text = MINIMAL + "\n[stepper]\nscheme = leapfrog\n"
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(text)

    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("[model]\nalpha = 1.0\npreset = spiral\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("section,key,value", [
        ("stepper", "cfl_react", "0.9"), ("monitors", "growth_factor", "1000.0"),
        ("monitors", "tail_fraction", "0.2"), ("monitors", "slope_tol", "1e-4"),
    ])
    def test_fixed_settings_are_unknown_keys(self, tmp_path, capsys, section, key, value):
        # the reaction cap and the classifier's thresholds are constants, not keys
        path = tmp_path / "run.cfg"
        path.write_text(f"{MINIMAL}[{section}]\n{key} = {value}\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: line 9: unknown key {key!r} in section [{section}]\n"

    def test_ndim_bounded_by_the_cell_count(self):
        # 36 axes of 3 cells fit the cell-count bound, 37 do not
        assert parse_config(MINIMAL.replace("ndim = 1\ncells = 64", "ndim = 36\ncells = 3")) \
            .grid.shape == (3,) * 36
        for ndim in (0, 37):
            with pytest.raises(ConfigError, match=rf"^line 6: ndim must satisfy 1 <= ndim <= 36, "
                                                  rf"got {ndim}$"):
                parse_config(MINIMAL.replace("ndim = 1", f"ndim = {ndim}"))

    @pytest.mark.parametrize("ndim", [10 ** 6, 10 ** 9])
    def test_large_ndim_refused_before_cells_are_expanded(self, tmp_path, ndim):
        # a subprocess with a timeout fails instead of hanging
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL.replace("ndim = 1", f"ndim = {ndim}"))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chemovir.__file__)))
        done = subprocess.run([sys.executable, "-m", "chemovir", "simulate", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert done.stderr == f"error: line 6: ndim must satisfy 1 <= ndim <= 36, got {ndim}\n"

    @pytest.mark.parametrize("key,value,shown", [
        ("ndim", 10 ** 3999, "got a 4000-digit integer"),
        ("cells", 10 ** 3999, "got (a 4000-digit integer,)"),
        ("cells", -10 ** 3999, "got (a negative 4000-digit integer,)"),
        ("cells", f"8, {10 ** 3999}", "got (8, a 4000-digit integer)"),
    ], ids=["ndim", "cells", "negative-cells", "cells-entries"])
    def test_long_int_shown_by_its_digit_count(self, tmp_path, capsys, key, value, shown):
        # a 4000-digit int parses exactly; the error names its size, not its digits
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL.replace(f"{key} = ", f"{key} = {value}  # ", 1))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        line = {"ndim": 6, "cells": 7}[key]
        assert err.startswith(f"error: line {line}: {key} must satisfy ")
        assert err.endswith(f", {shown}\n") and err.count("\n") == 1 and len(err) < 200


class TestLongText:
    """An error quotes at most 32 characters of the file's text, and names its length."""

    LONG = {
        "cells": MINIMAL.replace("cells = 64", "cells = " + "9" * 5000),
        "kappa": MINIMAL.replace("alpha = 1.0", "alpha = 1.0\nkappa = " + "x" * 3000),
        "unknown-key": MINIMAL + "k" * 4000 + " = 1\n",
        "no-equals": MINIMAL + "k" * 4000 + "\n",
        "unknown-section": MINIMAL + "[" + "s" * 4000 + "]\n",
        "scheme": MINIMAL + "[stepper]\nscheme = " + "x" * 4000 + "\n",
        "preset": MINIMAL.replace("alpha = 1.0", "alpha = 1.0\npreset = " + "p" * 4000),
    }

    @pytest.mark.parametrize("case,line,message,length", [
        ("cells", 7, "key 'cells' expects list of int, got '99999", 5000),
        ("kappa", 4, "key 'kappa' expects float, got 'xxxxx", 3000),
        ("unknown-key", 8, "unknown key 'kkkkk", 4000),
        ("no-equals", 8, "expected 'key = value', got 'kkkkk", 4000),
        ("unknown-section", 8, "unknown section '[ssss", 4002),
        ("scheme", 9, "scheme must satisfy one of ('imex', 'explicit-euler'), got 'xxxxx", 4000),
        ("preset", 4, "preset must be one of", 4000),
    ], ids=list(LONG))
    def test_one_short_line_that_cites_the_line(self, tmp_path, capsys, case, line, message,
                                                length):
        path = tmp_path / "run.cfg"
        path.write_text(self.LONG[case])
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: {message}")
        assert f"'... ({length} characters)" in err
        assert err.count("\n") == 1 and len(err) < 200

    def test_short_text_quoted_whole(self):
        text = "k" * 32
        with pytest.raises(ConfigError, match=f"^line 8: unknown key '{text}' in section \\[grid\\]$"):
            parse_config(MINIMAL + text + " = 1\n")

    @pytest.mark.parametrize("text,message", [
        (MINIMAL.replace("cells = 64", "cells ="), "line 7: key 'cells' expects list of int, got ''"),
        (MINIMAL + "[sweep]\nalphas = ,\n", "line 9: key 'alphas' expects list of float, got ','"),
    ], ids=["cells", "alphas"])
    def test_empty_list(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)


class TestReadmeBlock:
    """README's configuration block lists every key at its default."""

    # a comment in the block names these, all default 1
    OVERRIDES = ("d_u", "d_v", "d_w", "decay_u", "decay_v", "decay_w", "production")

    @pytest.fixture
    def block(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return text.split("```ini\n", 1)[1].split("```", 1)[0]

    def test_lists_every_key_but_the_overrides(self, block):
        listed = parse_config(block).lines
        keys = {key for section in _SCHEMA.values() for key in section}
        assert set(listed) == keys - set(self.OVERRIDES)
        assert all(key in block for key in self.OVERRIDES)

    def test_values_are_the_defaults(self, block):
        # alpha and alphas have no default: the block gives example values
        values, defaults = _key_values(parse_config(block)), _key_values(parse_config(""))
        for key in parse_config(block).lines.keys() - {"alpha", "alphas"}:
            assert values[key] == defaults[key], key


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        text = ("[model]\nalpha = 1.0\nkappa = 2.0\nd_v = 0.5\n"
                "preset = random-smooth\nseed = 3\n"
                "[grid]\nndim = 2\ncells = 16, 8\nlengths = 1.0, 2.0\n"
                "[stepper]\nscheme = explicit-euler\nt_end = 1.5\n"
                "[monitors]\nmonitor_every = 0.05\nout_dir = results\n"
                "[sweep]\nalphas = 1.0, 2.0\nseeds = 4, 5\n")
        config = parse_config(text)
        assert parse_config(config_to_text(config)) == config

    def test_round_trip_of_defaults(self):
        config = parse_config(MINIMAL)
        assert parse_config(config_to_text(config)) == config


def with_key(section, key, value):
    """A valid sweep configuration with key = value on its last line, and that line."""
    lines = [line for line in ("[model]", "alpha = 1.0", "[sweep]", "alphas = 1.0")
             if not line.startswith(f"{key} =")]
    lines += [f"[{section}]", f"{key} = {value}"]
    return "\n".join(lines) + "\n", len(lines)


def violations():
    # one value per constrained key that breaks its constraint
    for section, keys in _SCHEMA.items():
        for key, kind in keys.items():
            if key == "out_dir":
                yield section, key, ""
            else:
                yield section, key, "bogus" if kind == "str" else "-1"


def non_finite():
    for section, keys in _SCHEMA.items():
        for key, kind in keys.items():
            if kind != "str":
                yield from ((section, key, value) for value in ("inf", "nan"))


def edges():
    # values just past the bounds that violations() and non_finite() stay clear
    # of: strict and upper bounds, entry counts, and a list's later entries
    yield from [
        ("stepper", "dt_max", "0"), ("stepper", "cfl_advect", "0"), ("stepper", "cfl_advect", "1"),
        ("stepper", "t_end", "0"), ("monitors", "monitor_every", "0"),
        ("grid", "ndim", "0"), ("grid", "ndim", "37"), ("grid", "cells", "2"),
        ("grid", "cells", "64, 64"), ("grid", "lengths", "0"), ("grid", "lengths", "1.0, 1.0"),
        ("sweep", "alphas", "1.0, -1.0"), ("sweep", "seeds", "0, -1"),
    ]


class TestConstraintLines:
    """Every constraint lives in a dataclass; its violation cites the key's line.

    alphas and seeds are checked when the sweep is built, so every case
    goes through Config.sweep_spec as the sweep command does.
    """

    @pytest.mark.parametrize("section,key,value", list(violations()) + list(non_finite())
                                                  + list(edges()))
    def test_violation_cites_line(self, section, key, value):
        text, line = with_key(section, key, value)
        with pytest.raises(ConfigError, match=rf"^line {line}: .*\b{key}\b"):
            parse_config(text).sweep_spec()

    def test_default_key_has_no_line(self):
        # 0.5 / 0.1 gives 6 records; the sweep needs 10, and monitor_every
        # keeps its default, so there is no line to cite
        config = parse_config(MINIMAL + "[stepper]\nt_end = 0.5\n[sweep]\nalphas = 1.0\n")
        with pytest.raises(ConfigError, match=r"^monitor_every must satisfy") as excinfo:
            config.sweep_spec()
        assert "line" not in str(excinfo.value)
