"""Dense real linear algebra and polynomial arithmetic.

Everything in the package is small and dense: polynomials up to degree
~10 and state matrices up to a few hundred entries per side.  numpy's
LAPACK bindings do the heavy lifting; this module adds the polynomial
layer, the Routh-Hurwitz table and a Lyapunov solver on top.  Polynomial
arithmetic is written with the operators *, + and -.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "poly_sub",
    "poly_roots",
    "routh_hurwitz_stable",
    "lyapunov_solve",
]

# trailing coefficients below this relative size are treated as zero
_STRIP_RTOL = 1e-12


class Polynomial:
    """Real polynomial stored as ascending coefficients.

    The zero polynomial is the single coefficient 0.0; any other value
    keeps a nonzero leading (highest-degree) coefficient, so
    ``degree == len(coeffs) - 1`` always holds.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[float] | np.ndarray | float):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            c = np.zeros(1)
        else:
            keep = np.nonzero(np.abs(c) > _STRIP_RTOL * scale)[0]
            c = np.array(c[: keep[-1] + 1], dtype=float)
        self.coeffs = c
        self.coeffs.setflags(write=False)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self) -> float:
        return float(self.coeffs[-1])

    def __call__(self, s: complex) -> complex:
        acc = 0.0 * s
        for c in self.coeffs[::-1]:
            acc = acc * s + c
        return acc

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return self.scaled(float(other))

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return Polynomial(a)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "Polynomial":
        return Polynomial(self.coeffs * c)

    @staticmethod
    def from_roots(roots: Sequence[complex], leading: float = 1.0) -> "Polynomial":
        """Real polynomial with the given root multiset.

        Complex roots must occur in (near-)conjugate pairs; each pair is
        expanded to a real quadratic so accumulated imaginary round-off
        never leaks into the coefficients.
        """
        remaining = list(np.asarray(roots, dtype=complex))
        p = Polynomial([leading])
        while remaining:
            r = remaining.pop(0)
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r)):
                p = p * Polynomial([-r.real, 1.0])
                continue
            # find the closest conjugate partner
            best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - r.conjugate()), default=None)
            if best is None or abs(remaining[best] - r.conjugate()) > 1e-6 * (1.0 + abs(r)):
                raise ValueError("complex roots must come in conjugate pairs")
            partner = remaining.pop(best)
            re = 0.5 * (r.real + partner.real)
            mag2 = abs(r) * abs(partner)
            p = p * Polynomial([mag2, -2.0 * re, 1.0])
        return p

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    """a - b.  The package writes the operator; this public name stays
    because the acceptance tests import it."""
    return a - b


def poly_roots(p: Polynomial) -> np.ndarray:
    """Roots via companion-matrix eigenvalues, Newton-polished.

    Raises for the zero polynomial and for constants.
    """
    if p.is_zero:
        raise ValueError("undefined roots: zero polynomial")
    if p.degree < 1:
        raise ValueError("roots require degree >= 1")
    c = p.scaled(1.0 / p.leading).coeffs
    n = p.degree
    comp = np.zeros((n, n))
    if n > 1:
        comp[:-1, 1:] = np.eye(n - 1)
    comp[-1, :] = -c[:n]
    roots = np.linalg.eigvals(comp)
    dp = Polynomial(p.coeffs[1:] * np.arange(1, n + 1))
    for i, r in enumerate(roots):
        best, best_val = r, abs(p(r))
        z = r
        for _ in range(3):
            d = dp(z)
            if d == 0:
                break
            z = z - p(z) / d
            v = abs(p(z))
            if v < best_val:
                best, best_val = z, v
        roots[i] = best
    # conjugate pairs sit next to each other
    return roots[np.lexsort((roots.imag, np.abs(roots.imag), roots.real))]


def routh_hurwitz_stable(p: Polynomial) -> bool:
    """Strict Hurwitz test via the full Routh table.

    True iff every root has strictly negative real part.  A vanishing
    first-column pivot is continued with the epsilon-substitution rule
    but counts as unstable; an identically zero row (imaginary-axis
    root pairs) returns False immediately.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("stability test requires degree >= 1")
    c = p.coeffs[::-1].copy()  # descending
    if c[0] < 0:
        c = -c
    n = c.size
    width = (n + 1) // 2
    row0 = np.zeros(width)
    row1 = np.zeros(width)
    row0[: c[0::2].size] = c[0::2]
    row1[: c[1::2].size] = c[1::2]
    first_col = [row0[0], row1[0]]
    ok = True
    prev2, prev = row0, row1
    scale = np.abs(row1)  # magnitude of the terms each entry of prev came from
    for _ in range(n - 2):
        pivot = prev[0]
        if abs(pivot) <= 1e-13 * scale[0]:
            if np.all(np.abs(prev) <= 1e-13 * scale):
                return False  # zero row: roots symmetric about the imaginary axis
            ok = False
            pivot = 1e-30 * max(np.max(np.abs(prev2)), np.max(np.abs(prev)), 1e-300)
        new = np.zeros(width)
        new_scale = np.zeros(width)
        for j in range(width - 1):
            a, b = pivot * prev2[j + 1], prev2[0] * prev[j + 1]
            new[j] = (a - b) / pivot
            new_scale[j] = (abs(a) + abs(b)) / abs(pivot)
        first_col.append(new[0])
        prev2, prev, scale = prev, new, new_scale
    return ok and all(v > 0.0 for v in first_col)


def lyapunov_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A X + X A' + Q = 0 for symmetric X.

    A must be Hurwitz and Q symmetric to within 1e-10 of max(1, max|Q|).
    Sizes here are small, so the vectorized linear system (Kronecker
    form) is solved directly.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if Q.shape != A.shape:
        raise ValueError("Q must match the shape of A")
    scale = max(1.0, float(np.max(np.abs(Q), initial=0.0)))
    if not np.max(np.abs(Q - Q.T), initial=0.0) <= 1e-10 * scale:
        raise ValueError("Q must be symmetric")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    ev = np.linalg.eigvals(A)
    if np.max(ev.real) >= 0.0:
        raise ValueError("unstable Lyapunov operator")
    eye = np.eye(n)
    m = np.kron(A, eye) + np.kron(eye, A)  # row-major vec of AX + XA'
    x = np.linalg.solve(m, -Q.reshape(-1))
    X = x.reshape(n, n)
    return 0.5 * (X + X.T)
