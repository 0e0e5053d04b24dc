"""Plain-text sectioned ``key = value`` configuration.

Zero-dependency parsing with line-accurate errors: unknown keys, type
mismatches, duplicates (both lines cited) and violated constraints all
name the offending line, and quote at most 32 characters of its text.
``#`` starts a comment anywhere.  Every key has a documented default
except alpha, which simulate requires and sweep ignores.

_SCHEMA is the only list of the keys, with each key's kind.  A key's value
goes to the dataclass field of the same name, except the grid and
constant-preset keys, which are assembled into a Grid and a tuple.  A key
left out is not passed, so the default is the dataclass's; only the grid
keys, which feed no field, have theirs here.  An int, alone or in a list,
is read exactly, or from a whole-valued float such as 64.0.  The
constraints live in the dataclasses (kappa's in RunSpec, where every spec
is built); their ValueError names the key, and is re-raised here as a
ConfigError with the key's line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .grid import _MAX_AXES, Grid, _quoted, _shown, require
from .model import Coefficients
from .stepper import StepControl
from .sweep import RunSpec, SweepSpec


class ConfigError(ValueError):
    """Configuration file problem, with the offending line in the message."""


# section -> key -> kind: float, int, str, or a list of one of them.  Key
# names are unique across sections.
_SCHEMA = {
    "model": {
        "alpha": "float", "kappa": "float",
        "d_u": "float", "d_v": "float", "d_w": "float",
        "decay_u": "float", "decay_v": "float", "decay_w": "float", "production": "float",
        "preset": "str", "seed": "int",
        "const_u": "float", "const_v": "float", "const_w": "float",
    },
    "grid": {"ndim": "int", "cells": "list of int", "lengths": "list of float"},
    "stepper": {
        "scheme": "str", "dt_max": "float", "cfl_advect": "float", "t_end": "float",
    },
    "monitors": {"monitor_every": "float", "snapshot_every": "float", "out_dir": "str"},
    "sweep": {"alphas": "list of float", "seeds": "list of int"},
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
    seeds: tuple[int, ...] = SweepSpec.seeds  # the default is SweepSpec's
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        require(self.alpha is None or self.alpha >= 0, "alpha", "alpha >= 0", self.alpha)
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
    """The value of a key of this kind; a list's entries each follow its element kind."""
    element = kind.removeprefix("list of ")
    parse = {"float": float, "int": _whole, "str": str}[element]
    try:
        if element == kind:
            return parse(raw)
        values = tuple(map(parse, raw.replace(",", " ").split()))
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise ConfigError(
            f"line {line_no}: key {key!r} expects {kind}, got {_quoted(raw)}") from None


def _whole(text: str) -> int:
    """An int, exactly by int() at any size, or from a whole-valued float such as 64.0."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise
        return int(value)


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
                raise ConfigError(f"line {line_no}: unknown section {_quoted(line)}; "
                                  f"expected one of {sorted(_SCHEMA)}")
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_no}: expected 'key = value', got {_quoted(raw_line.strip())}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside of any section")
        key, raw_value = (piece.strip() for piece in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {line_no}: unknown key {_quoted(key)} in section [{section}]")
        if key in values:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} in [{section}] "
                f"(first set on line {lines[key]})")
        values[key] = _parse_scalar(_SCHEMA[section][key], raw_value, line_no, key)
        lines[key] = line_no
    return values, lines


def parse_config(text: str) -> Config:
    """Parse and validate a configuration; errors cite the line of their key.

    The keys only the sweep reads, alphas and seeds, are validated when
    Config.sweep_spec builds the sweep; simulate checks that alpha is set.
    """
    values, lines = _tokenize(text)
    # the grid keys feed no dataclass field, so their defaults are stated here
    ndim = values.get("ndim", 1)
    # before cells and lengths are repeated ndim times: Grid admits no more axes
    if not 1 <= ndim <= _MAX_AXES:
        raise ConfigError(f"line {lines['ndim']}: ndim must satisfy 1 <= ndim <= {_MAX_AXES}, "
                          f"got {_shown(ndim)}")
    cells, lengths = values.get("cells", (64,)), values.get("lengths", (1.0,))
    if len(cells) not in (1, ndim):
        raise ConfigError(f"line {lines['cells']}: cells must satisfy one entry or {ndim} "
                          f"entries, got {_shown(cells)}")
    cells, lengths = (entries * ndim if len(entries) == 1 else entries
                      for entries in (cells, lengths))
    constants = tuple(values.get(key, default)
                      for key, default in zip(_CONSTANTS, RunSpec.constants))

    def pick(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    def build():
        return Config(**pick(Config), grid=Grid(cells, lengths),
                      coeffs=Coefficients(**pick(Coefficients)),
                      control=StepControl(**pick(StepControl)),
                      constants=constants, lines=lines)

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
        for key, kind in keys.items():
            value = values[key]
            if kind.startswith("list") and value is not None:
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
