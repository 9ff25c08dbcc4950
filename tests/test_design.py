import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreelab.design import (
    FilterParams,
    design_filter,
    feasible,
    h2_drift,
    make_filter,
    mode_denominator,
)
from agreelab.lti import RationalTF, h2_norm_sq
from agreelab.numerics import Polynomial, poly_roots, poly_sub, routh_hurwitz_stable

P3_5_2 = FilterParams(3.0, 5.0, 2.0)


def drift_tf(p: FilterParams) -> RationalTF:
    """s T1 Fa realized from the filter: wn^2 over the mode quadratic."""
    fa = make_filter(p)
    t1_den = poly_sub(fa.den, fa.num)  # den(1 - Fa) before normalization
    # factor out the structural root at the origin
    coeffs = t1_den.coeffs
    assert abs(coeffs[0]) <= 1e-9 * np.max(np.abs(coeffs))
    reduced = Polynomial(coeffs[1:])
    return RationalTF(fa.num, reduced)


def random_feasible(rng) -> FilterParams:
    while True:
        p = FilterParams(
            rng.uniform(0.3, 6.0), rng.uniform(0.2, 8.0), rng.uniform(0.3, 4.0)
        )
        if feasible(p):
            return p


class TestFilterParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            FilterParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FilterParams(1.0, -2.0, 1.0)


class TestMakeFilter:
    def test_reference_parameters(self):
        fa = make_filter(P3_5_2)
        expect = RationalTF([9.0], [9.0, 57.0, 61.0, 5.0])
        assert fa.approx_equal(expect)

    def test_unit_dc_gain(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = FilterParams(*rng.uniform(0.2, 5.0, 3))
            assert make_filter(p)(0.0) == pytest.approx(1.0)

    def test_repeated_root_case(self):
        fa = make_filter(FilterParams(1.0, 1.0, 1.0))
        assert fa.approx_equal(RationalTF([1.0], [1.0, 3.0, 3.0, 1.0]))


class TestModeDenominator:
    def test_agreement_mode_has_origin_root(self):
        d = mode_denominator(P3_5_2, 1.0)
        assert d.coeffs.tolist() == [0.0, 57.0, 61.0, 5.0]

    def test_worst_case_mode(self):
        d = mode_denominator(P3_5_2, -1.0)
        assert d.coeffs.tolist() == [18.0, 57.0, 61.0, 5.0]

    def test_unit_constant_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = FilterParams(*rng.uniform(0.3, 4.0, 3))
            alpha = 1.0 - 1.0 / p.omega_n**2
            assert mode_denominator(p, alpha).coeffs[0] == pytest.approx(1.0)

    def test_matches_cleared_rational_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = FilterParams(*rng.uniform(0.3, 4.0, 3))
            alpha = rng.uniform(-1.0, 1.0)
            fa = make_filter(p)
            cleared = poly_sub(fa.den, fa.num.scaled(alpha))
            lead = mode_denominator(p, alpha).leading
            assert mode_denominator(p, alpha).scaled(1.0 / lead).approx_equal(cleared)


class TestFeasible:
    def test_reference_point_feasible_everywhere(self):
        alphas = np.linspace(-1.0, 1.0, 41)
        assert feasible(P3_5_2, alphas)
        assert feasible(P3_5_2)  # worst-case certificate
        # reference parameters satisfy the simple sufficient condition
        assert P3_5_2.zeta * P3_5_2.omega_n > P3_5_2.tau

    def test_sufficient_condition_samples(self):
        # zeta * omega_n > tau (all positive) implies interval feasibility
        rng = np.random.default_rng(7)
        count = 0
        while count < 500:
            wn = rng.uniform(0.1, 5.0)
            tau = rng.uniform(0.05, 5.0)
            zeta = rng.uniform(0.05, 5.0)
            if zeta * wn <= tau:
                continue
            assert feasible(FilterParams(wn, tau, zeta))
            count += 1

    def test_lightly_damped_near_boundary_is_stable(self):
        # (1, 100, 0.01) at alpha = -1: the cubic factors exactly as
        # (s + 1/50)(100 s^2 + s + 100), so the mode is Hurwitz
        p = FilterParams(1.0, 100.0, 0.01)
        cubic = mode_denominator(p, -1.0)
        roots = poly_roots(cubic)
        assert np.max(roots.real) < 0
        assert routh_hurwitz_stable(cubic)
        assert feasible(p, [-1.0])

    def test_tiny_damping_infeasible(self):
        # zeta -> 0 with tau*omega_n in the unstable window (2 zeta, 1/(2 zeta))
        p = FilterParams(2.0, 5.0, 1e-3)
        assert not routh_hurwitz_stable(mode_denominator(p, -0.5))
        assert not feasible(p, [1.0, -0.5])
        assert not feasible(p)
        roots = poly_roots(mode_denominator(p, -0.5))
        assert np.max(roots.real) > 0  # roots oracle agrees

    def test_monotone_feasibility_interval(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(-1.0, 1.0 - 1e-9, 50)
        for _ in range(20):
            p = FilterParams(*rng.uniform(0.2, 5.0, 3))
            if feasible(p):
                assert feasible(p, grid)


def routh_feasible(p: FilterParams, alphas) -> bool:
    """Oracle: the full Routh table at every mode below 1 - 1e-9, plus the
    quadratic left at alpha = 1 once the root at the origin is divided out."""
    wn, tau, zeta = p.as_tuple()
    quad = Polynomial([tau * wn * wn + 2.0 * zeta * wn, 2.0 * zeta * wn * tau + 1.0, tau])
    if not routh_hurwitz_stable(quad):
        return False
    alphas = [-1.0] if alphas is None else alphas
    return all(routh_hurwitz_stable(mode_denominator(p, a)) for a in alphas if a < 1.0 - 1e-9)


log_uniform = st.floats(-4.0, 3.0).map(lambda e: 10.0**e)


class TestFeasibleOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        wn=log_uniform,
        tau=log_uniform,
        zeta=log_uniform,
        alphas=st.none() | st.lists(st.floats(-3.0, 1.2), max_size=6),
    )
    def test_inequality_equals_routh(self, wn, tau, zeta, alphas):
        p = FilterParams(wn, tau, zeta)
        assert feasible(p, alphas) == routh_feasible(p, alphas)

    def test_both_outcomes_sampled(self):
        # the inequality and the table agree on both sides of the boundary
        rng = np.random.default_rng(17)
        seen = {True: 0, False: 0}
        for i in range(3000):
            p = FilterParams(*(10.0 ** rng.uniform(-4.0, 3.0, 3)))
            alphas = rng.uniform(-3.0, 1.2, int(rng.integers(0, 6))).tolist()
            alphas = None if i % 3 == 0 else alphas
            verdict = feasible(p, alphas)
            assert verdict == routh_feasible(p, alphas)
            seen[verdict] += 1
        assert min(seen.values()) > 100


class TestH2Drift:
    def test_reference_value(self):
        # 27/2318, cross-validated against the Lyapunov norm and the
        # quadrature oracle in test_lti
        assert h2_drift(P3_5_2) == pytest.approx(27.0 / 2318.0, rel=1e-12)

    def test_small_omega_limit(self):
        assert h2_drift(FilterParams(1e-4, 5.0, 2.0)) < 1e-11

    def test_matches_lyapunov_norm_on_random_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = random_feasible(rng)
            closed = h2_drift(p)
            realized = h2_norm_sq(drift_tf(p))
            assert closed == pytest.approx(realized, rel=1e-8)


class TestDesignFilter:
    def test_degenerate_bounds_pin_point(self):
        got = design_filter({"omega_n": [3.0, 3.0], "tau": [5.0, 5.0], "zeta": [2.0, 2.0]})
        assert got == P3_5_2

    def test_dominates_reference_point(self):
        got = design_filter({"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]})
        assert feasible(got)
        assert h2_drift(got) <= 27.0 / 2074.0
        assert h2_drift(got) <= h2_drift(P3_5_2)

    def test_infeasible_bounds_raise(self):
        # tau*omega_n lands in (2 zeta, 1/(2 zeta)) across the whole box
        with pytest.raises(ValueError, match="no feasible"):
            design_filter(
                {"omega_n": [5e-4, 1e-3], "tau": [10.0, 20.0], "zeta": [5e-4, 1e-3]}
            )

    def test_deterministic(self):
        bounds = {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]}
        a = design_filter(bounds)
        b = design_filter(bounds)
        assert a == b

    def test_respects_explicit_alphas(self):
        got = design_filter(
            {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]},
            alphas=[1.0, 0.2287, 0.0, -0.5, -0.7287],
        )
        assert feasible(got, [1.0, 0.2287, 0.0, -0.5, -0.7287])
