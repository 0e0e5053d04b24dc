"""Plain-text sectioned ``key = value`` configuration.

Zero-dependency parsing with line-accurate errors: unknown keys, type
mismatches, duplicates (both lines cited) and violated constraints all
name the offending line.  ``#`` starts a comment anywhere.  Every key has
a documented default except alpha, which simulate requires and sweep
ignores.

_SCHEMA is the only list of the keys.  A key's value goes to the dataclass
field of the same name, except the grid and constant-preset keys, which
are assembled into a Grid and a tuple.  The constraints live in those
dataclasses; their ValueError names the key, and is re-raised here as a
ConfigError with the key's line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .grid import Grid, require
from .model import Coefficients
from .stepper import StepControl
from .sweep import RunSpec, SweepSpec


class ConfigError(ValueError):
    """Configuration file problem, with the offending line in the message."""


_CONTROL = StepControl()  # the stepper keys' defaults are StepControl's

# section -> key -> (kind, default); kind in float/int/str/float_list/int_list.
# Key names are unique across sections.
_SCHEMA = {
    "model": {
        "alpha": ("float", None),
        "kappa": ("float", 0.0),
        "d_u": ("float", 1.0), "d_v": ("float", 1.0), "d_w": ("float", 1.0),
        "decay_u": ("float", 1.0), "decay_v": ("float", 1.0), "decay_w": ("float", 1.0),
        "production": ("float", 1.0),
        "preset": ("str", "gaussian-bump-v"),
        "seed": ("int", 0),
        "const_u": ("float", 1.0), "const_v": ("float", 0.0), "const_w": ("float", 0.0),
    },
    "grid": {
        "ndim": ("int", 1),
        "cells": ("int_list", (64,)),
        "lengths": ("float_list", (1.0,)),
    },
    "stepper": {
        "scheme": ("str", _CONTROL.scheme),
        "dt_max": ("float", _CONTROL.dt_max),
        "cfl_advect": ("float", _CONTROL.cfl_advect),
        "cfl_react": ("float", _CONTROL.cfl_react),
        "t_end": ("float", 5.0),
    },
    "monitors": {
        "monitor_every": ("float", 0.1),
        "snapshot_every": ("float", 0.0),
        "growth_factor": ("float", 1000.0),
        "tail_fraction": ("float", 0.2),
        "slope_tol": ("float", 1e-4),
        "out_dir": ("str", "out"),
    },
    "sweep": {
        "alphas": ("float_list", None),
        "seeds": ("int_list", (0,)),
    },
}

_CONSTANTS = ("const_u", "const_v", "const_w")


@dataclass(frozen=True, kw_only=True)
class Config(RunSpec):
    """The run settings both commands share, plus the keys one command alone
    reads: alpha, seed and snapshot_every (simulate), alphas and seeds
    (sweep).  ``lines`` maps each key set in the file to its line."""

    alpha: float | None = None
    seed: int = 0
    snapshot_every: float = 0.0
    out_dir: str = "out"
    alphas: tuple[float, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        self.params(0.0 if self.alpha is None else self.alpha)  # Params checks alpha and kappa
        require(self.seed >= 0, "seed", "seed >= 0", self.seed)
        require(self.snapshot_every >= 0, "snapshot_every", "snapshot_every >= 0",
                self.snapshot_every)
        require(self.out_dir != "", "out_dir", "a nonempty path", self.out_dir)

    def sweep_spec(self) -> SweepSpec:
        """The sweep over alphas and seeds with every shared setting of this config."""
        if self.alphas is None:
            raise ConfigError("sweep command needs 'alphas' in the [sweep] section")
        shared = {f.name: getattr(self, f.name) for f in fields(RunSpec)}
        return _cite_line(self.lines, SweepSpec, **shared, alphas=self.alphas, seeds=self.seeds)


def _cite_line(lines: dict, build, **kwargs):
    """build(**kwargs), its ValueError re-raised as a ConfigError with the
    line of the key it names (none when the key took its default)."""
    try:
        return build(**kwargs)
    except ConfigError:
        raise
    except ValueError as error:
        line = lines.get(str(error).split(" ", 1)[0])
        raise ConfigError(f"line {line}: {error}" if line else str(error)) from None


def _parse_scalar(kind: str, raw: str, line_no: int, key: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind == "str":
            return raw
        items = [piece.strip() for piece in raw.replace(",", " ").split()]
        if not items:
            raise ValueError
        if kind == "int_list":
            return tuple(int(piece) for piece in items)
        return tuple(float(piece) for piece in items)
    except (ValueError, OverflowError):
        raise ConfigError(
            f"line {line_no}: key {key!r} expects {kind.replace('_', ' of ')}, got {raw!r}"
        ) from None


def _tokenize(text: str):
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"line {line_no}: unknown section [{section}]; "
                    f"expected one of {sorted(_SCHEMA)}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside of any section")
        key, raw_value = (piece.strip() for piece in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section}]")
        if key in values:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} in [{section}] "
                f"(first set on line {lines[key]})")
        values[key] = _parse_scalar(_SCHEMA[section][key][0], raw_value, line_no, key)
        lines[key] = line_no
    return values, lines


def parse_config(text: str) -> Config:
    """Parse and validate a configuration; errors cite the line of their key.

    The keys only the sweep reads, alphas and seeds, are validated when
    Config.sweep_spec builds the sweep; simulate checks that alpha is set.
    """
    values, lines = _tokenize(text)
    for keys in _SCHEMA.values():
        for key, (_, default) in keys.items():
            values.setdefault(key, default)

    ndim = values["ndim"]
    if len(values["cells"]) not in (1, ndim):
        raise ConfigError(f"line {lines['cells']}: cells must satisfy one entry or {ndim} "
                          f"entries, got {values['cells']}")
    cells, lengths = (values[key] * ndim if len(values[key]) == 1 else values[key]
                      for key in ("cells", "lengths"))

    def pick(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    def build():
        return Config(**pick(Config), grid=Grid(cells, lengths),
                      coeffs=Coefficients(**pick(Coefficients)),
                      control=StepControl(**pick(StepControl)),
                      constants=tuple(values[key] for key in _CONSTANTS), lines=lines)

    return _cite_line(lines, build)


def _key_values(config: Config) -> dict:
    """The value of every key in a Config: the inverse of parse_config's build."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    for part in (config.coeffs, config.control):
        values.update(vars(part))
    values.update(zip(_CONSTANTS, config.constants))
    values.update(ndim=config.grid.ndim, cells=config.grid.shape, lengths=config.grid.lengths)
    return values


def config_to_text(config: Config) -> str:
    """Canonical serialization; parsing it back yields an equal Config."""
    values = _key_values(config)
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            value = values[key]
            if kind.endswith("list") and value is not None:
                lines.append(f"{key} = {', '.join(map(repr, value))}")
            elif value is not None:
                lines.append(f"{key} = {value if kind == 'str' else repr(value)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> Config:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    return parse_config(text)
