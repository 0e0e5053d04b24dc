"""Runtime oracles: mass identities, decay bounds, quasi-energy, verdicts.

Every provable statement about the continuum system that survives
discretisation becomes a pure function of diagnostic records here:

* the exact total-mass identity  int(u) + int(v) = e^{-d t} M0 + kappa|O|(1-e^{-d t})/d,
  a consequence of the u*w conversion terms cancelling, when u and v share
  the decay rate d (NaN otherwise);
* the one-sided mass bound  int(u) <= e^{-d t} int(u0) + kappa|O|(1-e^{-d t})/d
  with d the decay rate of u;
* the analogous bound on int(v) with the combined initial mass and d the
  smaller decay rate of u and v;
* the quasi-energy  F = (1/p) int(u^p) + ((p+3)/4) int(v^2) + int(|grad w|^2),
  whose differential inequality forces a plateau for admissible p when
  every coefficient is 1 (NaN otherwise).

The monitors are stateless.  A run's record at t = 0 is its one baseline:
every later record's mass oracles relax from its masses of u and u + v.
compute_record evaluates a whole ensemble's records in one call.  The mass
helpers take floats or, elementwise, arrays of masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import (Grid, State, _cell_sums, _extrema, _grad_norms_sq, _integrals,
                   _lp_norm_from_sum, _member_runs, atomic_write)
from .model import Coefficients

@dataclass
class DiagnosticsRecord:
    t: float
    mass_u: float
    mass_v: float
    mass_w: float
    sup_u: float
    sup_v: float
    sup_w: float
    lp_u: float
    grad_v_sq: float
    grad_w_sq: float
    energy: float
    mass_identity_residual: float
    u_bound_slack: float
    v_bound_slack: float


# the columns of diagnostics.csv, one per record field, in field order
CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))

# the share of the records, at a trajectory's end, whose max F the plateau check
# compares with the max before them
_PLATEAU_WINDOW = 0.2
# the thresholds of classify_boundedness
_GROWTH_FACTOR = 1e3
_TAIL_FRACTION = 0.2
_SLOPE_TOL = 1e-4


@dataclass(frozen=True)
class BoundednessVerdict:
    label: str  # "bounded-plateau" | "growing" | "inconclusive"
    peak_sup_u: float
    tail_slope: float


def _relaxed_mass(initial_mass: float, kappa: float, volume: float, t: float,
                  decay: float) -> float:
    # solution of M' = kappa|O| - decay M from M(0) = initial_mass
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    factor = math.exp(-decay * t)
    return factor * initial_mass + kappa * volume * (1.0 - factor) / decay


def mass_identity_residual(mass_u: float, mass_v: float, t: float,
                           initial_mass_uv: float, kappa: float, volume: float,
                           decay: float = 1.0) -> float:
    """Signed defect of the exact total-mass identity at time t.

    The identity holds when u and v decay at the common rate ``decay``.
    """
    return (mass_u + mass_v) - _relaxed_mass(initial_mass_uv, kappa, volume, t, decay)


def check_u_mass_bound(mass_u: float, mass_u0: float, kappa: float,
                       volume: float, t: float, decay: float = 1.0) -> float:
    """Slack of the healthy-cell mass bound; nonnegative means it holds.

    ``decay`` is the decay rate of u.
    """
    return _relaxed_mass(mass_u0, kappa, volume, t, decay) - mass_u


def check_v_mass_bound(mass_v: float, initial_mass_uv: float, kappa: float,
                       volume: float, t: float, decay: float = 1.0) -> float:
    """Slack of the infected-cell mass bound (uses the combined initial mass).

    ``decay`` is the smaller of the decay rates of u and v.
    """
    return _relaxed_mass(initial_mass_uv, kappa, volume, t, decay) - mass_v


_UNIT_COEFFICIENTS = Coefficients()


def compute_record(state: State, grid: Grid, params, p, first=None):
    """The records of an ensemble state, (E, 3, *shape) with its members'
    times, from per-member sequences of Params and energy exponents.  The
    mass oracles relax from the masses of ``first``, the members' records
    at t = 0, or without it from the state's own, which must then be at
    t = 0 (ValueError otherwise).  The members must share t, kappa and the
    coefficients, as a run's do at each record (ValueError otherwise): each
    mass oracle is evaluated once, on the arrays of their masses.  An
    exponent is None when infeasible, and then its member's energy and lp_u
    are NaN (energy monitoring is disabled below the threshold).  The
    energy is NaN as well when any coefficient is not 1: the quasi-energy
    inequality is derived for the unit system.
    """
    # every quantity comes from per-member reductions of the (E, 3, *shape) array
    fields, times, exponents, count = state.fields, list(map(float, state.t)), p, len(state.fields)
    if fields.shape[1:] != (3,) + grid.shape:
        raise ValueError(f"fields shape {fields.shape[1:]} does not match grid {grid.shape}")
    if not len(times) == len(params) == len(exponents) == len(first or times) == count:
        raise ValueError(f"{count} members need as many times, Params, exponents, first records")
    # compared, not hashed: a tuple compares the members' one Coefficients by identity
    keys = [(t, member.kappa, member.coeffs) for t, member in zip(times, params)]
    if keys.count(keys[0]) != count:
        raise ValueError("ensemble members must share t, kappa and the coefficients")
    t, kappa, c = keys[0]
    if first is None and t != 0:
        raise ValueError(f"records at t={t} relax from the members' first records")
    masses = _integrals(fields, grid)
    # max |values| from the state's memoised extrema, on a stepped state those
    # of its validity check; abs turns -0.0 into 0.0, and a NaN is both extrema
    sups = [list(map(max, map(abs, lo), map(abs, hi))) for lo, hi in zip(*_extrema(state))]
    grads = _grad_norms_sq(fields[:, 1:], grid).tolist()
    integrals_vv = _integrals(fields[:, 1] * fields[:, 1], grid).tolist()
    # u^p once per run of equal exponents, with the scalar exponent; abs is
    # the identity on u >= 0, so it serves lp_u and energy
    sums_up = [math.nan] * count
    for p, members in _member_runs(exponents):
        if p is not None:
            if not p > 1:
                raise ValueError(f"energy exponent must exceed 1, got {p}")
            sums_up[members] = _cell_sums(fields[members, 0] ** float(p), grid.ndim).tolist()
    mass_u, mass_v, volume = masses[:, 0], masses[:, 1], grid.volume
    # the initial masses: the state's own in the first records, then theirs
    mass_u0, mass_v0 = ((mass_u, mass_v) if first is None else
                        np.array([(record.mass_u, record.mass_v) for record in first]).T)
    mass_uv0 = mass_u0 + mass_v0
    if c.decay_u == c.decay_v:
        residuals = mass_identity_residual(mass_u, mass_v, t, mass_uv0, kappa, volume,
                                           c.decay_u).tolist()
    else:  # no exact identity when u and v decay at different rates
        residuals = [math.nan] * count
    u_slacks = check_u_mass_bound(mass_u, mass_u0, kappa, volume, t, c.decay_u).tolist()
    v_slacks = check_v_mass_bound(mass_v, mass_uv0, kappa, volume, t,
                                  min(c.decay_u, c.decay_v)).tolist()
    unit = c == _UNIT_COEFFICIENTS

    records = []
    for i, (p, (mass_u, mass_v, mass_w), (grad_v_sq, grad_w_sq)) in enumerate(
            zip(exponents, masses.tolist(), grads)):
        if p is None:
            lp_u = energy = math.nan
        else:
            p = float(p)
            lp_u = _lp_norm_from_sum(sums_up[i], grid, p)
            # F = (1/p) int(u^p) + ((p+3)/4) int(v^2) + int(|grad w|^2)
            energy = (grid.cell_volume * sums_up[i] / p + (p + 3.0) / 4.0 * integrals_vv[i]
                      + grad_w_sq if unit else math.nan)
        records.append(DiagnosticsRecord(
            t, mass_u, mass_v, mass_w, *sups[i], lp_u, grad_v_sq, grad_w_sq, energy,
            residuals[i], u_slacks[i], v_slacks[i]))
    return records


def classify_boundedness(records) -> BoundednessVerdict:
    """Classify a trajectory as bounded-plateau, growing or inconclusive.

    growing: some sup_u exceeds _GROWTH_FACTOR * sup_u(0) + 1 (1e3).
    bounded-plateau: no growth trigger, and the least-squares slope of
    log(sup_u) over the final _TAIL_FRACTION (0.2) of the records stays
    below _SLOPE_TOL (1e-4) per unit time.  Anything else is inconclusive.
    """
    records = list(records)
    if len(records) < 10:
        raise ValueError(f"classification needs >= 10 records, got {len(records)}")
    sup = np.array([r.sup_u for r in records])
    times = np.array([r.t for r in records])
    peak = float(sup.max())
    trigger = _GROWTH_FACTOR * sup[0] + 1.0

    tail = max(2, int(math.ceil(_TAIL_FRACTION * len(records))))
    tail_t = times[-tail:]
    tail_log = np.log(np.maximum(sup[-tail:], 1e-300))
    if float(tail_t[-1] - tail_t[0]) == 0.0:
        slope = 0.0
    else:
        slope = float(np.polyfit(tail_t, tail_log, 1)[0])

    if bool(np.any(sup > trigger)):
        label = "growing"
    elif slope < _SLOPE_TOL:
        label = "bounded-plateau"
    else:
        label = "inconclusive"
    return BoundednessVerdict(label=label, peak_sup_u=peak, tail_slope=slope)


def energy_plateau_exceedance(records) -> float:
    """Relative amount by which the max of F over the final fifth of the
    records (_PLATEAU_WINDOW) exceeds the earlier max.

    Nonpositive values mean the energy admitted a finite running maximum
    that stopped increasing (the numerical restatement of the quasi-energy
    inequality).  NaN energies (disabled monitor) raise.
    """
    energies = np.array([r.energy for r in records], dtype=float)
    if np.any(np.isnan(energies)):
        raise ValueError("energy monitoring was disabled for this run")
    split = len(energies) - max(1, int(math.ceil(_PLATEAU_WINDOW * len(energies))))
    if split < 1:
        raise ValueError("trajectory too short for a plateau window")
    early = float(energies[:split].max())
    late = float(energies[split:].max())
    scale = max(abs(early), 1e-30)
    return (late - early) / scale


def _csv_text(columns, rows) -> str:
    """The header ``columns``, then a line per row of its attributes of those
    names: bools as true/false, floats by repr, anything else by str."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (getattr(row, col) for col in columns)
        lines.append(",".join(str(c).lower() if isinstance(c, bool) else
                              repr(c) if isinstance(c, float) else str(c) for c in cells))
    return "\n".join(lines) + "\n"


def write_diagnostics_csv(records, path):
    """Write records to CSV with the fixed column schema (atomically)."""
    atomic_write(path, _csv_text(CSV_COLUMNS, records))
