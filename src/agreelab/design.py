"""Third-order network-filter synthesis.

The filter family is

    Fa(s) = wn^2 / ((tau s + 1)(s^2 + 2 zeta wn s + wn^2)),

whose mode denominators 1 - alpha Fa expand to the cubic

    tau s^3 + (2 zeta wn tau + 1) s^2 + (tau wn^2 + 2 zeta wn) s
        + wn^2 (1 - alpha).

For alpha < 1 every coefficient is positive, so by Hurwitz's cubic
condition the mode is stable iff

    (2 zeta wn tau + 1)(tau wn^2 + 2 zeta wn) > tau wn^2 (1 - alpha).

Only the right side depends on alpha, and it decreases in alpha, so
feasibility over a set of modes is this one inequality at the smallest
alpha below 1 (alpha = -1 for the whole interval [-1, 1)).  The alpha = 1
mode has a root at the origin and a quadratic factor with positive
coefficients, Hurwitz for every valid parameter triple, so it never
constrains the design.

The drift objective is the squared H2 norm of s T1(s) Fa(s), a strictly
proper second-order system, in closed form

    wn^3 / ((2 wn tau + 4 zeta)(2 wn tau zeta + 1)).

The closed form matches the Lyapunov-based norm of the realized system
to machine precision (see the test suite, which cross-validates both
against a frequency-domain quadrature oracle).

Exact design.  The drift increases in wn and decreases in tau and zeta.
Divided by wn, the inequality reads, with p = wn tau,

    q(p) = 2 zeta p^2 + (4 zeta^2 + alpha) p + 2 zeta > 0,

and q increases in zeta.  So zeta = zeta_hi, and the corner (wn_lo,
tau_hi, zeta_hi) is optimal when feasible.  Otherwise q <= 0 on a band
c1 <= p <= c2 with c1 c2 = 1, and the optimum is the better of p = c1 at
wn = wn_lo and p = c2 at tau = tau_hi.  The box is infeasible iff
[wn_lo tau_lo, wn_hi tau_hi] lies inside [c1, c2].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lti import RationalTF
from .numerics import Polynomial

__all__ = [
    "FilterParams",
    "make_filter",
    "feasible",
    "h2_drift",
    "design_filter",
]


@dataclass(frozen=True)
class FilterParams:
    """Strictly positive (omega_n [rad/s], tau [s], zeta [-])."""

    omega_n: float
    tau: float
    zeta: float

    def __post_init__(self):
        for name in ("omega_n", "tau", "zeta"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.omega_n, self.tau, self.zeta)


def make_filter(p: FilterParams) -> RationalTF:
    """Unit-DC-gain third-order filter of the family above."""
    wn, tau, zeta = p.as_tuple()
    den = Polynomial([1.0, tau]) * Polynomial([wn * wn, 2.0 * zeta * wn, 1.0])
    return RationalTF(Polynomial([wn * wn]), den)


def _worst_alpha(alphas: Sequence[float] | None) -> float | None:
    """The smallest alpha below 1 - 1e-9, which decides feasibility
    (module docstring): -1 without alphas, None if there is none."""
    if alphas is None:
        return -1.0
    below = np.asarray(alphas, dtype=float)
    below = below[below < 1.0 - 1e-9]
    return float(below.min()) if below.size else None


def feasible(p: FilterParams, alphas: Sequence[float] | None = None) -> bool:
    """Stability of every network mode with alpha below 1 - 1e-9.

    Alphas at or above that bound are not tested: the alpha = 1 mode is
    marginally stable for every parameter triple (module docstring).

    Without alphas the whole interval [-1, 1) is certified through its
    worst case alpha = -1.
    """
    alpha = _worst_alpha(alphas)
    if alpha is None:
        return True
    wn, tau, zeta = p.as_tuple()
    a2 = 2.0 * zeta * wn * tau + 1.0
    a1 = tau * wn * wn + 2.0 * zeta * wn
    return a2 * a1 > tau * (wn * wn * (1.0 - alpha))


def h2_drift(p: FilterParams) -> float:
    """Squared H2 norm of s T1(s) Fa(s) in closed form."""
    wn, tau, zeta = p.as_tuple()
    return wn**3 / ((2.0 * wn * tau + 4.0 * zeta) * (2.0 * wn * tau * zeta + 1.0))


def design_filter(bounds: dict, alphas: Sequence[float] | None = None) -> FilterParams:
    """Feasible minimizer of the drift objective in the box bounds
    ({"omega_n": [lo, hi], "tau": ..., "zeta": ...}), by the exact rule
    of the module docstring.  alphas = None certifies all of [-1, 1)."""
    try:
        box = [tuple(map(float, bounds[k])) for k in ("omega_n", "tau", "zeta")]
    except KeyError as e:
        raise ValueError(f"bounds missing key {e.args[0]!r}") from None
    if not all(0.0 < lo <= hi for lo, hi in box):
        raise ValueError("bounds must be positive with lo <= hi")
    (wn_lo, wn_hi), (tau_lo, tau_hi), (_, zeta) = box
    corner = FilterParams(wn_lo, tau_hi, zeta)
    if feasible(corner, alphas):
        return corner
    alpha = _worst_alpha(alphas)  # not None: the corner is infeasible
    b = 4.0 * zeta * zeta + alpha
    # b < 0 here.  Widen the band so that, at its edges, q exceeds 1e-13 of
    # the magnitudes `feasible` compares, even where the band is narrow.
    b -= 1e-13 * (1.0 - alpha - b)
    c2 = (-b + np.sqrt(b * b - 16.0 * zeta * zeta)) / (4.0 * zeta)
    c1 = 1.0 / c2  # the quadratic formula loses c1 to cancellation
    candidates = [
        FilterParams(wn_lo, np.clip(c1 / wn_lo, tau_lo, tau_hi), zeta),
        FilterParams(np.clip(c2 / tau_hi, wn_lo, wn_hi), tau_hi, zeta),
    ]
    candidates = [p for p in candidates if feasible(p, alphas)]
    if not candidates:
        raise ValueError("no feasible filter parameters inside the bounds")
    return min(candidates, key=h2_drift)
