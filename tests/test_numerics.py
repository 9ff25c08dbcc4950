from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agreelab.numerics import (
    Polynomial,
    lyapunov_solve,
    poly_roots,
    routh_hurwitz_stable,
)
from helpers import approx_equal


def poly(*ascending):
    return Polynomial(list(ascending))


def naive_convolve(a, b):
    out = np.zeros(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = poly(1.0, 2.0, 0.0, 0.0)
        assert p.degree == 1
        assert p.coeffs.tolist() == [1.0, 2.0]

    def test_zero_polynomial_is_single_zero(self):
        p = poly(0.0, 0.0, 0.0)
        assert p.is_zero
        assert p.coeffs.tolist() == [0.0]

    def test_leading_nonzero_after_normalization(self):
        p = poly(3.0, 0.0, 5.0)
        assert p.leading == 5.0
        assert p.degree == 2

    def test_evaluation(self):
        p = poly(9.0, 57.0, 61.0, 5.0)
        s = 1.0 + 2.0j
        expected = 9 + 57 * s + 61 * s**2 + 5 * s**3
        assert p(s) == pytest.approx(expected)

    def test_from_roots_real_coeffs(self):
        roots = [-1.0, -2.0 + 3.0j, -2.0 - 3.0j]
        p = Polynomial.from_roots(roots, leading=2.0)
        for r in roots:
            assert abs(p(r)) < 1e-9

    def test_from_roots_rejects_unpaired_complex(self):
        with pytest.raises(ValueError):
            Polynomial.from_roots([1.0j])


class TestPolyMul:
    def test_difference_of_squares(self):
        # (s+1)(s-1) = s^2 - 1
        p = poly(1.0, 1.0) * poly(-1.0, 1.0)
        assert p.coeffs.tolist() == [-1.0, 0.0, 1.0]

    def test_shift_by_monomial(self):
        # (s+2) * s^2 = s^3 + 2 s^2
        p = poly(2.0, 1.0) * poly(0.0, 0.0, 1.0)
        assert p.coeffs.tolist() == [0.0, 0.0, 2.0, 1.0]

    def test_third_order_filter_denominator(self):
        # (5s+1)(s^2+12s+9): oracle is direct convolution
        a = [1.0, 5.0]
        b = [9.0, 12.0, 1.0]
        expected = naive_convolve(a, b)
        p = poly(*a) * poly(*b)
        assert np.allclose(p.coeffs, expected)
        assert p.coeffs.tolist() == [9.0, 57.0, 61.0, 5.0]

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    @example([6.0, 0.0, 5.39312061507277e-12], [6.0, 0.0, 5.39312061507277e-12])
    def test_matches_naive_convolution(self, a, b):
        # the oracle convolves the stripped inputs, as the product does: a
        # coefficient at the strip threshold (the pinned example) is gone
        # from a factor but would survive in the product of the raw lists
        pa, pb = Polynomial(a), Polynomial(b)
        got = pa * pb
        want = Polynomial(naive_convolve(pa.coeffs, pb.coeffs))
        assert approx_equal(got, want, rtol=1e-12)

    def test_degree_law_nonzero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Polynomial(rng.uniform(0.5, 2.0, rng.integers(1, 6)))
            b = Polynomial(rng.uniform(0.5, 2.0, rng.integers(1, 6)))
            assert (a * b).degree == a.degree + b.degree


class TestPolyRoots:
    def test_simple_factorization(self):
        r = poly_roots(poly(2.0, 3.0, 1.0))  # s^2+3s+2
        assert np.allclose(sorted(r.real), [-2.0, -1.0])
        assert np.allclose(r.imag, 0.0)

    def test_triple_root_at_origin(self):
        r = poly_roots(poly(0.0, 0.0, 0.0, 1.0))  # s^3
        assert np.allclose(r, 0.0, atol=1e-7)

    def test_quadratic_formula_case(self):
        # s^2+12s+9 -> -6 +- 3 sqrt(3)
        r = np.sort(poly_roots(poly(9.0, 12.0, 1.0)).real)
        assert r == pytest.approx([-6 - 3 * np.sqrt(3), -6 + 3 * np.sqrt(3)])

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError, match="undefined roots"):
            poly_roots(poly(0.0))

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            poly_roots(poly(3.0))

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = rng.uniform(-5, 5, rng.integers(2, 8))
            p = Polynomial(c)
            if p.degree < 1:
                continue
            for r in poly_roots(p):
                assert abs(p(r)) <= 1e-8 * np.max(np.abs(p.coeffs)) * max(1.0, abs(r)) ** p.degree

    def test_roots_roundtrip_well_separated(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(1, 6)
            roots = np.sort(rng.uniform(-5, 5, n) + np.arange(n) * 7.0)
            p = Polynomial.from_roots(roots, leading=rng.uniform(0.5, 2.0))
            got = np.sort(poly_roots(p).real)
            assert np.allclose(got, roots, atol=1e-7)

    def test_conjugate_pairs_adjacent(self):
        p = poly(2.0, 0.0, 1.0) * poly(5.0, 2.0, 1.0)
        r = poly_roots(p)
        assert r[0] == r[1].conjugate()
        assert r[2] == r[3].conjugate()


class TestRouthHurwitz:
    def test_second_order_all_positive(self):
        assert routh_hurwitz_stable(poly(1.0, 1.0, 1.0))

    def test_third_order_bc_less_ad(self):
        # s^3+s^2+2s+3: 1*2 < 1*3 fails the table
        assert not routh_hurwitz_stable(poly(3.0, 2.0, 1.0, 1.0))

    def test_mode_cubic_at_worst_case(self):
        assert routh_hurwitz_stable(poly(18.0, 57.0, 61.0, 5.0))

    def test_sign_normalized_leading(self):
        assert routh_hurwitz_stable(poly(-1.0, -1.0, -1.0))

    def test_badly_scaled_stable_cubic(self):
        # 0.01 s^3 + (1 + 2e-8) s^2 + 3e-6 s + 3e-4: the third-row pivot,
        # about 6e-14, is small beside the unit s^2 coefficient but 2e-8 of
        # the products it is formed from
        a0, a1, a2, a3 = 3e-4, 3e-6, 1.0 + 2e-8, 0.01
        assert Fraction(a2) * Fraction(a1) > Fraction(a3) * Fraction(a0)  # exact Hurwitz test
        assert routh_hurwitz_stable(poly(a0, a1, a2, a3))

    def test_zero_row_imaginary_roots(self):
        # (s^2+1)(s+1) = s^3+s^2+s+1 has roots on the axis
        assert not routh_hurwitz_stable(poly(1.0, 1.0, 1.0, 1.0))

    def test_degree_zero_raises(self):
        with pytest.raises(ValueError):
            routh_hurwitz_stable(poly(1.0))

    def test_agrees_with_root_signs(self):
        # oracle: sign of max real part of the exact root set
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 1000:
            n = rng.integers(1, 7)
            re = rng.uniform(0.05, 3.0, n) * rng.choice([-1.0, 1.0], n)
            im = rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.5)
            roots = []
            for a, b in zip(re, im):
                if b == 0.0:
                    roots.append(a)
                else:
                    roots += [a + 1j * b, a - 1j * b]
            p = Polynomial.from_roots(roots, leading=rng.uniform(0.5, 2.0))
            stable_oracle = max(r.real for r in roots) < 0
            assert routh_hurwitz_stable(p) == stable_oracle
            checked += 1


class TestLyapunov:
    def test_scalar(self):
        X = lyapunov_solve(np.array([[-1.0]]), np.array([[1.0]]))
        assert X == pytest.approx(np.array([[0.5]]))

    def test_minus_identity(self):
        X = lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(X, 0.5 * np.eye(2))

    def test_residual_and_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = rng.integers(1, 9)
            m = rng.normal(size=(n, n))
            A = -(m @ m.T) - np.eye(n) * rng.uniform(0.1, 1.0)
            A = A + rng.normal(size=(n, n)) * 0.1  # generic stable-ish
            if np.max(np.linalg.eigvals(A).real) >= -1e-6:
                continue
            B = rng.normal(size=(n, rng.integers(1, 3)))
            Q = B @ B.T
            X = lyapunov_solve(A, Q)
            res = A @ X + X @ A.T + Q
            assert np.linalg.norm(res) <= 1e-9 * max(1.0, np.linalg.norm(Q))
            assert np.min(np.linalg.eigvalsh(X)) >= -1e-9

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable Lyapunov"):
            lyapunov_solve(np.array([[1.0]]), np.array([[1.0]]))

    def test_rejects_marginal(self):
        with pytest.raises(ValueError, match="unstable Lyapunov"):
            lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))

    def test_drift_companion_gramian(self):
        # second-order drift system at (3, 5, 2); H2^2 = 27/2318 frozen
        # from the quadrature oracle in test_lti
        A = np.array([[0.0, 1.0], [-57.0 / 5.0, -61.0 / 5.0]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[9.0 / 5.0, 0.0]])
        X = lyapunov_solve(A, B @ B.T)
        assert float((C @ X @ C.T)[0, 0]) == pytest.approx(27.0 / 2318.0, rel=1e-12)

    def test_symmetry_tolerance(self):
        X = lyapunov_solve(-np.eye(2), np.array([[1.0, 1e-14], [0.0, 1.0]]))
        assert np.allclose(X, 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="Q must be symmetric"):
            lyapunov_solve(-np.eye(2), np.array([[1.0, 1e-3], [0.0, 1.0]]))
