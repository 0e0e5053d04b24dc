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
(`fractions.Fraction`) whenever the inputs are exact, so that alpha chosen
exactly on the threshold is never misclassified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

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


@dataclass(frozen=True)
class EnergyExponent:
    """Admissible exponent for the quasi-energy functional.

    Satisfies lower_bound < p <= upper_bound with upper_bound = 2*alpha.
    """

    p: float
    lower_bound: float
    upper_bound: float

    def __post_init__(self):
        if not (self.lower_bound < self.p <= self.upper_bound):
            raise ValueError(
                f"energy exponent must satisfy {self.lower_bound} < p <= "
                f"{self.upper_bound}, got p={self.p}"
            )
        if not self.p > 1:
            raise ValueError(f"energy exponent must exceed 1, got {self.p}")


def alpha_threshold(n: int) -> Fraction:
    """Exact rational threshold on alpha above which solutions stay bounded.

    1/2 + n^2/(6n+4) in dimensions 1..4 and n/4 for n >= 5.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"spatial dimension must be an integer >= 1, got {n!r}")
    if n <= 4:
        return Fraction(1, 2) + Fraction(n * n, 6 * n + 4)
    return Fraction(n, 4)


def _positive_part(x):
    zero = Fraction(0) if isinstance(x, Rational) else 0.0
    return x if x > zero else zero


def select_energy_exponent(alpha, n: int) -> EnergyExponent:
    """Pick an exponent p for the quasi-energy functional.

    All four lower bounds

        1 + n^2/(3n+2),  n/2,  (1-alpha)_+ * n/2,  (1 + (1-alpha)_+)/(1 + 1/n)

    must be strictly exceeded while p <= 2*alpha; p is placed at the
    midpoint of the feasible interval so neither strict bound is grazed.
    Raises ExponentInfeasibleError when the interval is empty.

    Rational alpha keeps the computation exact; float alpha uses floats.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"spatial dimension must be an integer >= 1, got {n!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    exact = isinstance(alpha, Rational)
    a = Fraction(alpha) if exact else float(alpha)
    one = Fraction(1) if exact else 1.0
    deficit = _positive_part(one - a)
    bounds = (
        one + Fraction(n * n, 3 * n + 2) * one,
        Fraction(n, 2) * one,
        deficit * Fraction(n, 2),
        (one + deficit) / (one + Fraction(1, n)),
    )
    lower = max(bounds)
    upper = 2 * a
    if not upper > lower:
        raise ExponentInfeasibleError(
            f"2*alpha = {upper} does not exceed the required lower bound {lower} "
            f"for n={n}; alpha is at or below the boundedness threshold"
        )
    p = (lower + upper) / 2
    return EnergyExponent(p=p, lower_bound=lower, upper_bound=upper)


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
