"""Parameters and exact threshold arithmetic of the saturated-chemotaxis
infection system.

The system couples healthy cells u, infected cells v and virus w:

    u_t = d_u*lap(u) - div(u/(1+u)^alpha * grad v) - u*w + kappa - u
    v_t = d_v*lap(v) + u*w - v
    w_t = d_w*lap(w) + v - w

with homogeneous Neumann boundaries.  This module holds the parameter
dataclasses, the dimension-dependent alpha threshold that guarantees
bounded solutions, the admissible exponent p used by the quasi-energy
monitor, and the spatially homogeneous steady states.  The formulas the
solver evaluates live where it evaluates them: the kinetics in
stepper._rates and the sensitivity u/(1+u)^alpha in
discretization._sensitivity.

Threshold and exponent arithmetic is done in exact rationals
(`fractions.Fraction`) for every alpha: a float is an exact rational too, so
an alpha on the threshold, or one float step from it, is never misclassified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grid import require


class ExponentInfeasibleError(ValueError):
    """No admissible energy exponent exists: 2*alpha is at or below the
    largest lower bound, i.e. alpha does not exceed the boundedness
    threshold for this dimension.  Simulation may still run, but energy
    monitoring is disabled."""


@dataclass(frozen=True)
class Coefficients:
    """Positive, finite coefficient overrides; the defaults reproduce the plain system."""

    d_u: float = 1.0
    d_v: float = 1.0
    d_w: float = 1.0
    decay_u: float = 1.0
    decay_v: float = 1.0
    decay_w: float = 1.0
    production: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            require(value > 0, name, f"{name} > 0", value)


@dataclass(frozen=True)
class Params:
    """Model constants: finite saturation exponent alpha >= 0 and source rate kappa >= 0."""

    alpha: float
    kappa: float = 0.0
    coeffs: Coefficients = field(default_factory=Coefficients)

    def __post_init__(self):
        require(self.alpha >= 0, "alpha", "alpha >= 0", self.alpha)
        require(self.kappa >= 0, "kappa", "kappa >= 0", self.kappa)


def alpha_threshold(n: int) -> Fraction:
    """Exact rational threshold on alpha above which solutions stay bounded.

    1/2 + n^2/(6n+4) in dimensions 1..4 and n/4 for n >= 5.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"spatial dimension must be an integer >= 1, got {n!r}")
    if n <= 4:
        return Fraction(1, 2) + Fraction(n * n, 6 * n + 4)
    return Fraction(n, 4)


def select_energy_exponent(alpha, n: int) -> Fraction:
    """Pick an exponent p for the quasi-energy functional.

    All four lower bounds

        1 + n^2/(3n+2),  n/2,  (1-alpha)_+ * n/2,  (1 + (1-alpha)_+)/(1 + 1/n)

    must be strictly exceeded while p <= 2*alpha; p is placed at the
    midpoint of the feasible interval so neither strict bound is grazed.
    The interval is nonempty exactly when alpha > alpha_threshold(n);
    otherwise ExponentInfeasibleError is raised.  The arithmetic is exact
    for int, float and Fraction alpha, and p is returned as a Fraction.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"spatial dimension must be an integer >= 1, got {n!r}")
    require(alpha >= 0, "alpha", "alpha >= 0", alpha)
    a = Fraction(alpha)
    deficit = max(1 - a, 0)
    lower = max(1 + Fraction(n * n, 3 * n + 2), Fraction(n, 2), deficit * Fraction(n, 2),
                (1 + deficit) / (1 + Fraction(1, n)))
    if not 2 * a > lower:
        raise ExponentInfeasibleError(
            f"2*alpha = {2 * a} does not exceed the required lower bound {lower} "
            f"for n={n}; alpha is at or below the boundedness threshold"
        )
    return (lower + 2 * a) / 2


def homogeneous_steady_states(kappa: float):
    """Spatially uniform states annihilating the kinetics (unit coefficients).

    The infection-free state (kappa, 0, 0) always exists; for kappa >= 1
    the infected state (1, kappa-1, kappa-1) appears (coinciding with the
    former at kappa = 1).
    """
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    states = [(float(kappa), 0.0, 0.0)]
    if kappa > 1:
        states.append((1.0, float(kappa) - 1.0, float(kappa) - 1.0))
    return states
