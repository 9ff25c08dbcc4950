import numpy as np
import pytest
from scipy.integrate import quad

from agreelab.lti import (
    CANCEL_TOL,
    RationalTF,
    StateSpace,
    h2_norm_sq,
    ss_block_diag,
    tf_cancel,
    tf_feedback,
    tf_inverse,
    tf_poles,
    tf_to_ss,
    tf_zeros,
    _cancelled_roots,
    _snapped_roots,
)
from agreelab.design import FilterParams, make_filter
from agreelab.numerics import Polynomial, lyapunov_solve, poly_roots
from agreelab.protocol import mode_transfer
from helpers import approx_equal


def tf(num, den):
    return RationalTF(num, den)


INTEGRATOR = tf([1.0], [0.0, 1.0])
FD0 = tf([-16.0, -7.586], [0.4143, 1.0])  # uniform local controller
PI = tf([-8.777, -4.74], [0.0, 1.0])  # PI local controller
FA = tf([9.0], [9.0, 57.0, 61.0, 5.0])  # third-order network filter (3, 5, 2)


def h2_quadrature(g: RationalTF) -> float:
    """Independent frequency-domain oracle: (1/pi) * int_0^inf |g(iw)|^2 dw."""

    def f(w):
        return abs(g(1j * w)) ** 2 / np.pi

    v1, _ = quad(f, 0.0, 50.0, limit=400)
    v2, _ = quad(f, 50.0, np.inf, limit=400)
    return v1 + v2


class TestRationalTF:
    def test_monic_denominator_normalization(self):
        g = tf([9.0], [57.0, 61.0, 5.0])
        assert g.den.leading == 1.0
        assert g.num.coeffs.tolist() == [1.8]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            tf([1.0], [0.0])

    def test_improper_values_are_legal(self):
        s = tf_inverse(INTEGRATOR)  # P^{-1} = s
        assert not s.is_proper
        assert s(2.0) == pytest.approx(2.0)

    def test_properness_queries(self):
        assert INTEGRATOR.is_strictly_proper
        assert tf([1.0, 1.0], [2.0, 1.0]).is_proper
        assert not tf([1.0, 1.0], [2.0, 1.0]).is_strictly_proper


class TestRealization:
    def test_integrator(self):
        ss = tf_to_ss(INTEGRATOR)
        assert ss.A.tolist() == [[0.0]]
        assert ss.B.tolist() == [[1.0]]
        assert ss.C.tolist() == [[1.0]]
        assert ss.D.tolist() == [[0.0]]

    def test_drift_system_companion_form(self):
        # wn^2/(tau s^2 + (2 zeta wn tau + 1) s + (tau wn^2 + 2 zeta wn))
        # at (3, 5, 2)
        g = tf([9.0], [57.0, 61.0, 5.0])
        ss = tf_to_ss(g)
        assert np.allclose(ss.A, [[0.0, 1.0], [-57.0 / 5.0, -61.0 / 5.0]])
        assert np.allclose(ss.B, [[0.0], [1.0]])
        assert np.allclose(ss.C, [[9.0 / 5.0, 0.0]])
        assert ss.D[0, 0] == 0.0

    def test_constant_gain(self):
        ss = tf_to_ss(RationalTF.constant(2.0))
        assert ss.nstates == 0
        assert ss.D.tolist() == [[2.0]]
        assert ss.eval(3.7j)[0, 0] == pytest.approx(2.0)

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="unrealizable"):
            tf_to_ss(tf_inverse(INTEGRATOR))

    def test_roundtrip_random_proper(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            nd = rng.integers(1, 7)
            nn = rng.integers(0, nd + 1)
            den = Polynomial.from_roots(-rng.uniform(0.2, 5.0, nd))
            num = Polynomial(rng.uniform(-2.0, 2.0, nn + 1))
            g = RationalTF(num, den)
            ss = tf_to_ss(g)
            for w in rng.uniform(0.1, 10.0, 10):
                s = 1j * w
                assert abs(ss.eval(s)[0, 0] - g(s)) <= 1e-9 * max(1.0, abs(g(s)))


class TestInterconnection:
    def test_series_keeps_uncancelled_factors(self):
        g = INTEGRATOR * tf_inverse(INTEGRATOR)  # s/s
        assert g.num.degree == 1
        assert g.den.degree == 1
        assert approx_equal(tf_cancel(g), RationalTF.constant(1.0))

    def test_parallel_sum(self):
        g = tf([1.0], [1.0, 1.0]) + tf([1.0], [1.0, 1.0])
        assert approx_equal(tf_cancel(g), tf([2.0], [1.0, 1.0]))

    def test_scale(self):
        g = INTEGRATOR * 3.0
        assert g(2.0) == pytest.approx(1.5)

    def test_series_matches_pointwise_product(self):
        rng = np.random.default_rng(7)
        g1 = tf([1.0, 0.5], [2.0, 1.0, 1.0])
        g2 = tf([3.0], [1.0, 2.0])
        g = g1 * g2
        for w in rng.uniform(0.1, 10.0, 5):
            s = 1j * w
            assert g(s) == pytest.approx(g1(s) * g2(s))


class TestFeedback:
    def test_zero_controller(self):
        S, Td = tf_feedback(INTEGRATOR, RationalTF.constant(0.0))
        assert approx_equal(S, RationalTF.constant(1.0))
        assert approx_equal(Td, INTEGRATOR)

    def test_uniform_local_loop(self):
        # integrator with -(7.586 s + 16)/(s + 0.4143)
        S, Td = tf_feedback(INTEGRATOR, FD0)
        assert approx_equal(S.num, Polynomial([0.0, 0.4143, 1.0]))
        assert approx_equal(S.den, Polynomial([16.0, 8.0003, 1.0]))
        assert approx_equal(Td.num, Polynomial([0.4143, 1.0]))
        assert approx_equal(Td.den, Polynomial([16.0, 8.0003, 1.0]))
        assert Td(0.0) == pytest.approx(0.4143 / 16.0)

    def test_pi_local_loop_zero_at_origin(self):
        S, Td = tf_feedback(INTEGRATOR, PI)
        assert approx_equal(Td.num, Polynomial([0.0, 1.0]))
        assert approx_equal(Td.den, Polynomial([8.777, 4.74, 1.0]))
        assert Td(0.0) == 0.0
        zs = tf_zeros(Td)
        assert zs.size == 1 and abs(zs[0]) < 1e-12

    def test_identity_one_minus_pf_times_s(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = RationalTF(rng.uniform(-2, 2, rng.integers(1, 3)), rng.uniform(0.5, 2, rng.integers(2, 4)))
            f = RationalTF(rng.uniform(-2, 2, rng.integers(1, 3)), rng.uniform(0.5, 2, rng.integers(1, 4)))
            try:
                S, _ = tf_feedback(p, f)
            except ZeroDivisionError:
                continue
            one = (RationalTF.constant(1.0) - p * f) * S
            assert approx_equal(one.num, one.den, rtol=1e-9)

    def test_algebraic_loop_rejected(self):
        with pytest.raises(ZeroDivisionError, match="algebraic loop"):
            tf_feedback(RationalTF.constant(1.0), RationalTF.constant(1.0))


class TestInverseAndCancel:
    def test_inverse_swaps(self):
        g = tf([1.0, 1.0], [2.0, 1.0])
        gi = tf_inverse(g)
        assert approx_equal(gi.num, Polynomial([2.0, 1.0]))
        assert approx_equal(gi.den, Polynomial([1.0, 1.0]))

    def test_inverse_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            tf_inverse(RationalTF.constant(0.0))

    def test_inverse_times_self_cancels_to_one(self):
        g = tf_inverse(FA) * FA
        assert approx_equal(tf_cancel(g), RationalTF.constant(1.0), rtol=1e-7)

    def test_cancel_examples(self):
        assert approx_equal(tf_cancel(tf([0.0, 1.0], [0.0, 1.0])), RationalTF.constant(1.0))
        g = tf_cancel(tf([-1.0, 0.0, 1.0], [1.0, 1.0]))  # (s^2-1)/(s+1)
        assert approx_equal(g, tf([-1.0, 1.0], [1.0]))

    def test_cancel_tolerance_semantics(self):
        g = tf([1.0 + 1e-12, 1.0], [1.0, 1.0])
        assert approx_equal(tf_cancel(g), RationalTF.constant(1.0), rtol=1e-6)

    def test_cancel_preserves_value_at_test_points(self):
        rng = np.random.default_rng(13)
        shared = Polynomial.from_roots([-1.5, -3.0])
        g = RationalTF(
            Polynomial([2.0, 1.0]) * shared,
            Polynomial([5.0, 4.0, 1.0]) * shared,
        )
        gc = tf_cancel(g)
        assert gc.den.degree == 2
        for w in rng.uniform(0.1, 10.0, 10):
            s = 1j * w
            assert abs(gc(s) - g(s)) <= 1e-6 * abs(g(s))


class TestCancelMultipleRoots:
    """poly_roots returns a double real root as a pair split by ~1e-8,
    real or +-j; a triple one is known to ~eps^(1/3) only."""

    SAMPLES = [0.7j, 2.0j, 0.1 + 5.0j]

    @pytest.mark.parametrize("zeros, poles, left, rtol", [
        ([-1.0, -3.0], [-1.0, -1.0, -2.0], (1, 2), 1e-7),  # double pole, one real zero on it
        ([-1.0, -1.0], [-1.0, -1.0, -2.0], (0, 1), 1e-7),  # double pole, double zero
        ([-1.0, -1.0], [-1.0, -2.0], (1, 1), 1e-7),  # double zero, one real pole on it
        ([-2.5, -2.5, -0.5], [-0.5, -0.5, -4.0], (2, 2), 1e-7),  # a double root on each side
        # a triple root's spread (~6e-6 here) exceeds CANCEL_TOL: nothing
        # cancels, and the rebuilt polynomial carries the spread
        ([-1.0], [-1.0, -1.0, -1.0, -3.0], (1, 4), 1e-5),
        ([-1.0, -1.0, -1.0], [-1.0, -3.0], (3, 2), 1e-5),
    ])
    def test_real_zero_next_to_multiple_root(self, zeros, poles, left, rtol):
        g = RationalTF(Polynomial.from_roots(zeros), Polynomial.from_roots(poles))
        gc = tf_cancel(g)
        assert (gc.num.degree, gc.den.degree) == left
        for s in self.SAMPLES:
            assert abs(gc(s) - g(s)) <= rtol * abs(g(s))

    def test_dart_zero_mode_times_filter(self):
        # 1/(1 - 0 Fa) Fa: the denominator holds each pole of Fa twice,
        # the numerator once; poly_roots splits two of the double poles
        # into +-7.6e-9j and +-4.9e-9j pairs
        fa = make_filter(FilterParams(3.0, 5.0, 2.0))
        g = mode_transfer(fa, 0.0) * fa
        assert np.max(np.abs(poly_roots(g.den).imag)) > 1e-9  # the pairs from_roots rejects
        gc = tf_cancel(g)
        assert gc.den.degree == 3 and gc.num.degree == 0
        assert np.all(tf_poles(g).imag == 0.0)
        for s in self.SAMPLES:
            assert abs(gc(s) - fa(s)) <= 1e-7 * abs(fa(s))

    def test_dart_zero_mode_h2_against_lyapunov(self):
        fa = make_filter(FilterParams(3.0, 5.0, 2.0))
        ss = tf_to_ss(fa)
        want = float(np.trace(ss.C @ lyapunov_solve(ss.A, ss.B @ ss.B.T) @ ss.C.T))
        # the surviving copy of a double pole is known to ~1e-8 only
        assert h2_norm_sq(mode_transfer(fa, 0.0) * fa) == pytest.approx(want, rel=1e-7)


def nested_loop_pairing(g: RationalTF) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for _cancelled_roots: each pass scans every zero/pole pair
    and removes the first closest one, while it is closer than CANCEL_TOL."""
    if g.num.is_zero:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
    zeros = list(_snapped_roots(g.num))
    poles = list(_snapped_roots(g.den))
    changed = True
    while changed and zeros and poles:
        changed = False
        best = None
        for i, z in enumerate(zeros):
            for j, q in enumerate(poles):
                d = abs(z - q)
                if best is None or d < best[0]:
                    best = (d, i, j)
        if best[0] < CANCEL_TOL:
            zeros.pop(best[1])
            poles.pop(best[2])
            changed = True
    return np.array(zeros, dtype=complex), np.array(poles, dtype=complex)


def planted_rational(rng) -> RationalTF:
    """Numerator and denominator that share one to three roots, each
    moved on the zero side by an offset from 1e-9 to 1e-5 (CANCEL_TOL
    lies inside) or by none: real roots once or twice on either side, and
    conjugate pairs.  One or two unshared roots per side come on top."""
    zeros, poles = [], []
    for _ in range(rng.integers(1, 4)):
        offset = rng.choice([0.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -5.0)
        if rng.random() < 0.6:
            r = rng.uniform(-4.0, 1.0)
            poles += [r] * int(rng.integers(1, 3))
            zeros += [r + offset * rng.choice([-1.0, 1.0])] * int(rng.integers(1, 3))
        else:
            r = complex(rng.uniform(-4.0, 1.0), rng.uniform(0.2, 4.0))
            z = r + offset * np.exp(2j * np.pi * rng.random())
            poles += [r, r.conjugate()]
            zeros += [z, z.conjugate()]
    for side in (zeros, poles):
        side += list(rng.uniform(-6.0, 2.0, int(rng.integers(0, 3))))
    return RationalTF(Polynomial.from_roots(zeros, leading=rng.uniform(0.5, 3.0)), Polynomial.from_roots(poles))


class TestRootPairing:
    def test_matches_nested_loop_pairing_bit_for_bit(self):
        rng = np.random.default_rng(20)
        removed = []
        for _ in range(500):
            g = planted_rational(rng)
            want = nested_loop_pairing(g)
            got = _cancelled_roots(g)
            for w, r in zip(want, got):
                assert r.dtype == w.dtype and r.tobytes() == w.tobytes()
            removed.append(g.den.degree - got[1].size)
        counts = np.bincount(removed)
        assert counts[0] >= 50 and counts[1] >= 50 and counts[2:].sum() >= 50

    def test_zero_function_and_constants(self):
        for g in (tf([0.0], [1.0, 1.0]), tf([2.0], [3.0]), tf([1.0, 1.0], [2.0])):
            want, got = nested_loop_pairing(g), _cancelled_roots(g)
            assert all(r.tobytes() == w.tobytes() and r.dtype == complex for w, r in zip(want, got))


class TestPolesZeros:
    def test_integrator_poles(self):
        p = tf_poles(INTEGRATOR)
        assert p.size == 1 and abs(p[0]) < 1e-12

    def test_agreement_mode_poles(self):
        # T1 = 1/(1 - Fa) has denominator s (5 s^2 + 61 s + 57)
        t1 = RationalTF(FA.den, Polynomial([0.0, 57.0, 61.0, 5.0]))
        poles = tf_poles(t1)
        origin = [p for p in poles if abs(p) < 1e-9]
        assert len(origin) == 1
        rest = sorted(p.real for p in poles if abs(p) >= 1e-9)
        expected = sorted(np.roots([5.0, 61.0, 57.0]).real)
        assert np.allclose(rest, expected, atol=1e-9)

    def test_match_roots_of_cancelled_form(self):
        # oracle: the roots of tf_cancel's rebuilt polynomials
        rng = np.random.default_rng(2718)

        def random_roots(count):
            roots = []
            while len(roots) < count:
                re = rng.uniform(-4.0, 4.0)
                if count - len(roots) >= 2 and rng.random() < 0.4:
                    im = rng.uniform(0.2, 4.0)
                    roots += [re + 1j * im, re - 1j * im]
                else:
                    roots.append(re)
            return roots

        def roots_or_none(p):
            return poly_roots(p) if p.degree >= 1 else np.zeros(0, dtype=complex)

        for case in range(600):
            zeros = random_roots(int(rng.integers(0, 4)))
            poles = random_roots(int(rng.integers(1, 5)))
            if case % 2:  # a zero-pole pair that cancels (1e-9) or stays (1e-5)
                r = rng.uniform(-4.0, 4.0)
                zeros.append(r)
                poles.append(r + (1e-9 if case % 4 == 1 else 1e-5))
            g = RationalTF(
                Polynomial.from_roots(zeros, leading=rng.uniform(0.5, 2.0)),
                Polynomial.from_roots(poles, leading=rng.uniform(0.5, 2.0)),
            )
            gc = tf_cancel(g)
            for got, want in ((tf_poles(g), roots_or_none(gc.den)), (tf_zeros(g), roots_or_none(gc.num))):
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_zero_transfer_has_no_poles_or_zeros(self):
        g = tf([0.0], [1.0, 1.0])
        assert tf_poles(g).size == 0 and tf_zeros(g).size == 0

    def test_hurwitz_margin(self):
        assert np.all(tf_poles(tf([1.0], [1.0, 1.0])).real < 0)
        assert not np.all(tf_poles(tf([1.0], [-1.0, 1.0])).real < 0)


class TestH2Norm:
    def test_first_order(self):
        assert h2_norm_sq(tf([1.0], [1.0, 1.0])) == pytest.approx(0.5, rel=1e-12)
        assert h2_norm_sq(tf_to_ss(tf([1.0], [1.0, 1.0]))) == pytest.approx(0.5, rel=1e-12)

    def test_drift_system_value(self):
        # frozen from the quadrature oracle; equals 27/2318
        g = tf([9.0], [57.0, 61.0, 5.0])
        oracle = h2_quadrature(g)
        assert h2_norm_sq(g) == pytest.approx(oracle, rel=1e-8)
        assert h2_norm_sq(g) == pytest.approx(27.0 / 2318.0, rel=1e-12)

    def test_marginal_pole_rejected(self):
        with pytest.raises(ValueError, match="H2 undefined"):
            h2_norm_sq(INTEGRATOR)
        with pytest.raises(ValueError, match="H2 undefined"):
            h2_norm_sq(tf_to_ss(INTEGRATOR))

    def test_biproper_rejected(self):
        with pytest.raises(ValueError, match="H2 undefined"):
            h2_norm_sq(tf([1.0, 1.0], [2.0, 1.0]))

    def test_state_space_feedthrough_rejected(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="H2 undefined"):
            h2_norm_sq(ss)

    def test_matches_quadrature_on_random_stable(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            nd = rng.integers(1, 5)
            re = -rng.uniform(0.2, 4.0, nd)
            im = rng.uniform(0.0, 3.0, nd) * (rng.random(nd) < 0.4)
            poles = []
            for a, b in zip(re, im):
                poles += [a] if b == 0 else [a + 1j * b, a - 1j * b]
            den = Polynomial.from_roots(poles)
            num = Polynomial(rng.uniform(-2.0, 2.0, max(1, den.degree)))
            if num.is_zero:
                continue
            g = RationalTF(num, den)
            val = h2_norm_sq(g)
            assert val >= 0.0
            assert val == pytest.approx(h2_quadrature(g), rel=1e-6)
            done += 1


class TestStateSpaceOps:
    def test_block_diag_integrators(self):
        ss = ss_block_diag([tf_to_ss(INTEGRATOR)] * 2)
        assert np.allclose(ss.A, np.zeros((2, 2)))
        assert np.allclose(ss.B, np.eye(2))
        assert np.allclose(ss.C, np.eye(2))
