"""SISO rational transfer functions and MIMO state-space systems.

Rational functions are exact polynomial pairs, combined with the
operators *, + and -: interconnection algebra never cancels factors
implicitly (see :func:`tf_cancel`).  Improper objects are legal values
-- they arise as plant inverses -- but cannot be realized or simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import Polynomial, lyapunov_solve, poly_roots

__all__ = [
    "RationalTF",
    "StateSpace",
    "tf_to_ss",
    "tf_feedback",
    "tf_inverse",
    "tf_cancel",
    "tf_poles",
    "tf_zeros",
    "h2_norm_sq",
    "ss_block_diag",
]

HURWITZ_MARGIN = 1e-9

# numerator and denominator roots closer than this cancel (tf_cancel)
CANCEL_TOL = 1e-7


class RationalTF:
    """Ratio of real polynomials, denominator normalized monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        lc = den.leading
        self.num = num.scaled(1.0 / lc)
        self.den = den.scaled(1.0 / lc)

    @staticmethod
    def constant(c: float) -> "RationalTF":
        return RationalTF(Polynomial([float(c)]), Polynomial([1.0]))

    @property
    def is_proper(self) -> bool:
        return self.num.is_zero or self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.is_zero or self.num.degree < self.den.degree

    def __call__(self, s: complex) -> complex:
        return self.num(s) / self.den(s)

    def __mul__(self, other):
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den)
        return RationalTF(self.num.scaled(float(other)), self.den)

    __rmul__ = __mul__

    def __add__(self, other: "RationalTF") -> "RationalTF":
        return RationalTF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalTF") -> "RationalTF":
        return self + -other

    def __neg__(self) -> "RationalTF":
        return self * -1.0

    def __repr__(self) -> str:
        return f"RationalTF({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()})"


def tf_inverse(g: RationalTF) -> RationalTF:
    if g.num.is_zero:
        raise ZeroDivisionError("cannot invert a zero transfer function")
    return RationalTF(g.den, g.num)


def tf_feedback(p: RationalTF, f: RationalTF) -> tuple[RationalTF, RationalTF]:
    """Close the loop u = f*y around plant p.

    Returns (S, Td) with S = 1/(1 - p f) and Td = S p.  The shared
    plant-denominator factor of Td is cancelled exactly by
    construction, not numerically.
    """
    den_open = p.den * f.den
    den_cl = den_open - p.num * f.num
    if den_cl.is_zero:
        raise ZeroDivisionError("algebraic loop: 1 - p*f vanishes identically")
    return RationalTF(den_open, den_cl), RationalTF(p.num * f.den, den_cl)


def _snapped_roots(p: Polynomial) -> np.ndarray:
    """poly_roots(p), each root within CANCEL_TOL of the real axis made
    real: a double real root comes back as a pair +-1e-8j or so, and a
    real root cancelling one of the pair would orphan the other."""
    if p.degree < 1:
        return np.zeros(0, dtype=complex)
    roots = poly_roots(p).astype(complex)
    roots.imag[np.abs(roots.imag) <= CANCEL_TOL] = 0.0
    return roots


def _cancelled_roots(g: RationalTF) -> tuple[np.ndarray, np.ndarray]:
    """The zeros and poles of g left after numerator/denominator root
    pairs closer than CANCEL_TOL are removed, each in poly_roots order
    and snapped to the real axis within CANCEL_TOL; none for the zero
    function.  Pairs are matched greedily by absolute distance, the
    first closest pair in zero-major order first."""
    if g.num.is_zero:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    zeros = _snapped_roots(g.num)
    poles = _snapped_roots(g.den)
    dist = np.abs(zeros[:, None] - poles[None, :])
    while dist.size:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if not dist[i, j] < CANCEL_TOL:
            break
        zeros, poles = np.delete(zeros, i), np.delete(poles, j)
        dist = np.delete(np.delete(dist, i, axis=0), j, axis=1)
    return zeros, poles


def tf_cancel(g: RationalTF) -> RationalTF:
    """g with its cancelling root pairs removed (see CANCEL_TOL); the
    result agrees with g away from the cancelled dynamics."""
    zeros, poles = _cancelled_roots(g)
    num = Polynomial.from_roots(zeros, leading=g.num.leading)
    return RationalTF(num, Polynomial.from_roots(poles))


def tf_poles(g: RationalTF) -> np.ndarray:
    return _cancelled_roots(g)[1]


def tf_zeros(g: RationalTF) -> np.ndarray:
    return _cancelled_roots(g)[0]


@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) quadruple; n may be zero for static gains."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        if A.size == 0:
            A = A.reshape(0, 0)
            n = 0
            B = B.reshape(0, D.shape[1]) if B.size == 0 else B
            C = C.reshape(D.shape[0], 0) if C.size == 0 else C
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError("B/C dimensions incompatible with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError("D dimensions incompatible with B and C")
        for name, m in (("A", A), ("B", B), ("C", C), ("D", D)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @property
    def ninputs(self) -> int:
        return self.B.shape[1]

    @property
    def noutputs(self) -> int:
        return self.C.shape[0]

    def eval(self, s: complex) -> np.ndarray:
        """Transfer matrix C (sI - A)^{-1} B + D at a single point."""
        n = self.nstates
        if n == 0:
            return self.D.astype(complex)
        m = s * np.eye(n) - self.A
        return self.C @ np.linalg.solve(m, self.B.astype(complex)) + self.D


def tf_to_ss(g: RationalTF) -> StateSpace:
    """Controllable-canonical (companion) realization of a proper TF."""
    if not g.is_proper:
        raise ValueError("unrealizable: relative degree negative")
    n = g.den.degree
    if n == 0:
        d = g.num.coeffs[0] if not g.num.is_zero else 0.0
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[d]]
        )
    b = np.zeros(n + 1)
    b[: g.num.coeffs.size] = g.num.coeffs
    a = g.den.coeffs  # monic, ascending, length n+1
    d = b[n]
    r = b[:n] - d * a[:n]
    A = np.zeros((n, n))
    if n > 1:
        A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[:n]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = r.reshape(1, n)
    return StateSpace(A, B, C, [[d]])


def ss_block_diag(systems: Sequence[StateSpace]) -> StateSpace:
    if not systems:
        raise ValueError("need at least one system")
    ns = [s.nstates for s in systems]
    ms = [s.ninputs for s in systems]
    ps = [s.noutputs for s in systems]
    n, m, p = sum(ns), sum(ms), sum(ps)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros((p, n))
    D = np.zeros((p, m))
    i = j = k = 0
    for s in systems:
        A[i : i + s.nstates, i : i + s.nstates] = s.A
        B[i : i + s.nstates, j : j + s.ninputs] = s.B
        C[k : k + s.noutputs, i : i + s.nstates] = s.C
        D[k : k + s.noutputs, j : j + s.ninputs] = s.D
        i += s.nstates
        j += s.ninputs
        k += s.noutputs
    return StateSpace(A, B, C, D)


def h2_norm_sq(g: RationalTF | StateSpace) -> float:
    """Squared H2 norm via the controllability gramian.

    Rational inputs are cancelled and realized first; the system must
    be strictly proper and Hurwitz.
    """
    if isinstance(g, RationalTF):
        gc = tf_cancel(g)
        if gc.num.is_zero:
            return 0.0
        if not gc.is_strictly_proper:
            raise ValueError("H2 undefined: system is not strictly proper")
        poles = poly_roots(gc.den) if gc.den.degree >= 1 else np.zeros(0, complex)
        if poles.size == 0 or np.max(poles.real) >= -HURWITZ_MARGIN:
            raise ValueError("H2 undefined: marginal or unstable poles")
        ss = tf_to_ss(gc)
    elif isinstance(g, StateSpace):
        ss = g
        if np.max(np.abs(ss.D), initial=0.0) > 0.0:
            raise ValueError("H2 undefined: system has direct feedthrough")
        if ss.nstates == 0:
            return 0.0
        if np.max(np.linalg.eigvals(ss.A).real) >= -HURWITZ_MARGIN:
            raise ValueError("H2 undefined: marginal or unstable poles")
    else:
        raise TypeError("expected RationalTF or StateSpace")
    X = lyapunov_solve(ss.A, ss.B @ ss.B.T)
    return float(np.trace(ss.C @ X @ ss.C.T))
