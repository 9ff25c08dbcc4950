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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lti import RationalTF
from .numerics import Polynomial, poly_mul

__all__ = [
    "FilterParams",
    "make_filter",
    "mode_denominator",
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
    den = poly_mul(
        Polynomial([1.0, tau]),
        Polynomial([wn * wn, 2.0 * zeta * wn, 1.0]),
    )
    return RationalTF(Polynomial([wn * wn]), den)


def mode_denominator(p: FilterParams, alpha: float) -> Polynomial:
    """Characteristic cubic of the network mode at eigenvalue alpha."""
    wn, tau, zeta = p.as_tuple()
    return Polynomial(
        [
            wn * wn * (1.0 - alpha),
            tau * wn * wn + 2.0 * zeta * wn,
            2.0 * zeta * wn * tau + 1.0,
            tau,
        ]
    )


def feasible(p: FilterParams, alphas: Sequence[float] | None = None) -> bool:
    """Stability of every network mode with alpha below 1 - 1e-9.

    Alphas at or above that bound are not tested: the alpha = 1 mode is
    marginally stable for every parameter triple (module docstring).

    Without alphas the whole interval [-1, 1) is certified through its
    worst case alpha = -1.
    """
    if alphas is None:
        alpha = -1.0
    else:
        below = np.asarray(alphas, dtype=float)
        below = below[below < 1.0 - 1e-9]
        if below.size == 0:
            return True
        alpha = float(below.min())
    wn, tau, zeta = p.as_tuple()
    a2 = 2.0 * zeta * wn * tau + 1.0
    a1 = tau * wn * wn + 2.0 * zeta * wn
    return a2 * a1 > tau * (wn * wn * (1.0 - alpha))


def h2_drift(p: FilterParams) -> float:
    """Squared H2 norm of s T1(s) Fa(s) in closed form."""
    wn, tau, zeta = p.as_tuple()
    return wn**3 / ((2.0 * wn * tau + 4.0 * zeta) * (2.0 * wn * tau * zeta + 1.0))


# -- constrained search --------------------------------------------------


def _log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    if lo <= 0 or hi < lo:
        raise ValueError("bounds must be positive with lo <= hi")
    if hi == lo:
        return np.array([lo])
    return np.geomspace(lo, hi, count)


def _penalized(x: np.ndarray, bounds, alphas) -> float:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if np.any(x < lo) or np.any(x > hi) or np.any(x <= 0):
        return np.inf
    p = FilterParams(*x)
    if not feasible(p, alphas):
        return np.inf
    return h2_drift(p)


def _nelder_mead(f, x0: np.ndarray, steps: np.ndarray, max_iter: int = 300) -> np.ndarray:
    """Reflection-based simplex descent; deterministic, bound handling
    is delegated to the penalized objective."""
    dim = x0.size
    live = np.nonzero(steps > 0)[0]
    if live.size == 0:
        return x0
    pts = [x0.copy()]
    for i in live:
        q = x0.copy()
        q[i] += steps[i]
        pts.append(q)
    simplex = np.array(pts)
    values = np.array([f(q) for q in simplex])
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        spread = values[-1] - values[0]
        if np.isfinite(spread) and spread <= 1e-12 * max(abs(values[0]), 1e-30):
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = f(refl)
        if f_refl < values[0]:
            expand = centroid + 2.0 * (centroid - worst)
            f_exp = f(expand)
            if f_exp < f_refl:
                simplex[-1], values[-1] = expand, f_exp
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contract = centroid + 0.5 * (worst - centroid)
            f_con = f(contract)
            if f_con < values[-1]:
                simplex[-1], values[-1] = contract, f_con
            else:
                for i in range(1, simplex.shape[0]):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    order = np.argsort(values, kind="stable")
    return simplex[order[0]]


def design_filter(
    bounds: dict | Sequence[tuple[float, float]],
    alphas: Sequence[float] | None = None,
    grid_points: int = 20,
) -> FilterParams:
    """Feasible minimizer of the drift objective within box bounds.

    A log-spaced grid (>= grid_points per axis) is filtered through
    `feasible`; the best grid point seeds a simplex refinement.  With
    alphas = None the worst-case certificate over [-1, 1) is used.
    Deterministic for fixed inputs; raises when no feasible point is
    found on the grid.
    """
    if isinstance(bounds, dict):
        try:
            box = [tuple(map(float, bounds[k])) for k in ("omega_n", "tau", "zeta")]
        except KeyError as e:
            raise ValueError(f"bounds missing key {e.args[0]!r}") from None
    else:
        box = [tuple(map(float, b)) for b in bounds]
        if len(box) != 3:
            raise ValueError("bounds must give (omega_n, tau, zeta) intervals")
    axes = [_log_grid(lo, hi, grid_points) for lo, hi in box]
    best = None
    for wn in axes[0]:
        for tau in axes[1]:
            for zeta in axes[2]:
                p = FilterParams(wn, tau, zeta)
                if not feasible(p, alphas):
                    continue
                val = h2_drift(p)
                key = (val, wn, tau, zeta)
                if best is None or key < best:
                    best = key
    if best is None:
        raise ValueError("no feasible filter parameters inside the bounds")
    x0 = np.array(best[1:])
    steps = np.array([0.05 * (hi - lo) for lo, hi in box])
    x = _nelder_mead(lambda q: _penalized(q, box, alphas), x0, steps)
    if _penalized(x, box, alphas) <= best[0]:
        return FilterParams(*x)
    return FilterParams(*x0)
