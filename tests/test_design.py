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
)
from agreelab.lti import RationalTF, h2_norm_sq
from agreelab.numerics import Polynomial, poly_roots, poly_sub, routh_hurwitz_stable
from helpers import approx_equal

P3_5_2 = FilterParams(3.0, 5.0, 2.0)


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
        assert approx_equal(fa, expect)

    def test_unit_dc_gain(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = FilterParams(*rng.uniform(0.2, 5.0, 3))
            assert make_filter(p)(0.0) == pytest.approx(1.0)

    def test_repeated_root_case(self):
        fa = make_filter(FilterParams(1.0, 1.0, 1.0))
        assert approx_equal(fa, RationalTF([1.0], [1.0, 3.0, 3.0, 1.0]))


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
            assert approx_equal(mode_denominator(p, alpha).scaled(1.0 / lead), cleared)


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

    def test_infeasible_corner_moves_to_band_edge(self):
        # zeta_hi = 0.1 < 0.207: at alpha = -1 the corner's wn tau = 4 lies in
        # the unstable band [c1, c2] = [1/c2, 4.58]; the optimum sits at
        # wn tau = c2 with tau = tau_hi
        got = design_filter({"omega_n": [0.5, 5.0], "tau": [0.5, 8.0], "zeta": [0.01, 0.1]})
        b = 4.0 * 0.1**2 - 1.0
        c2 = (-b + np.sqrt(b * b - 16.0 * 0.1**2)) / (4.0 * 0.1)
        assert not feasible(FilterParams(0.5, 8.0, 0.1))
        assert feasible(got)
        assert (got.tau, got.zeta) == (8.0, 0.1)
        assert got.omega_n == pytest.approx(c2 / 8.0, rel=1e-9)
        assert got.omega_n == pytest.approx(0.5727178, rel=1e-7)
        assert h2_drift(got) == pytest.approx(0.0102502, rel=1e-5)

    @pytest.mark.parametrize(
        "zeta_hi, tau_lo",
        [(0.15, 0.1), (1e-6, 1e-6)],
        ids=["both-edges-in-box", "small-damping"],
    )
    def test_lower_band_edge_at_lowest_omega(self, zeta_hi, tau_lo):
        # the corner's wn tau = 1 lies in the band at alpha = -1; the point
        # wn tau = c1 at wn = 1 beats wn tau = c2 at tau = 1, which at small
        # damping also falls outside the box (c2 ~ 1 / (2 zeta) > 10); there
        # the quadratic formula would lose c1 ~ 2 zeta to cancellation
        box = {"omega_n": [1.0, 10.0], "tau": [tau_lo, 1.0], "zeta": [zeta_hi / 10.0, zeta_hi]}
        got = design_filter(box)
        b = 4.0 * zeta_hi**2 - 1.0
        c1 = 4.0 * zeta_hi / (-b + np.sqrt(b * b - 16.0 * zeta_hi**2))
        assert feasible(got)
        assert (got.omega_n, got.zeta) == (1.0, zeta_hi)
        assert got.tau == pytest.approx(c1, rel=1e-9)
        upper = FilterParams(1.0 / c1, 1.0, zeta_hi)
        assert h2_drift(got) < h2_drift(upper)

    def test_narrow_band_edge_stays_feasible(self):
        # zeta_hi just below (sqrt(2) - 1) / 2, where the band at alpha = -1
        # closes on wn tau = 1: here it is 1 +- 1.7e-5, too narrow for a fixed
        # relative step of 1e-12 off its edge to pass `feasible`
        zeta_hi = (np.sqrt(2.0) - 1.0) / 2.0 * (1.0 - 1e-10)
        got = design_filter({"omega_n": [1.0, 2.0], "tau": [0.5, 1.0], "zeta": [0.1, zeta_hi]})
        assert feasible(got)
        assert (got.omega_n, got.zeta) == (1.0, zeta_hi)
        assert 1.0 - 2e-5 < got.tau < 1.0 - 1.6e-5


AXES = ("omega_n", "tau", "zeta")


def oracle_grid(box: dict, alphas, count: int = 40):
    """Drift and feasibility on a log grid that includes the box corners,
    from the Hurwitz inequality evaluated in one numpy pass."""
    axes = []
    for key in AXES:
        lo, hi = box[key]
        axis = np.geomspace(lo, hi, count)
        axis[[0, -1]] = lo, hi
        axes.append(axis)
    wn, tau, zeta = np.meshgrid(*axes, indexing="ij", sparse=True)
    below = [-1.0] if alphas is None else [a for a in alphas if a < 1.0 - 1e-9]
    alpha = min(below, default=1.0)
    ok = (2 * zeta * wn * tau + 1) * (tau * wn**2 + 2 * zeta * wn) > tau * wn**2 * (1 - alpha)
    drift = wn**3 / ((2 * wn * tau + 4 * zeta) * (2 * wn * tau * zeta + 1))
    return np.broadcast_to(drift, ok.shape)[ok]


# log10 of the lower bound and of the box width; zeta_hi reaches well below
# 0.207, where the corner can sit in the unstable band
box_axis = st.tuples(st.floats(-2.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
zeta_axis = st.tuples(st.floats(-3.5, 0.5), st.one_of(st.just(0.0), st.floats(0.0, 2.0)))


class TestDesignFilterOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        wn=box_axis,
        tau=box_axis,
        zeta=zeta_axis,
        alphas=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    )
    def test_no_grid_point_beats_design(self, wn, tau, zeta, alphas):
        box = {"omega_n": (10.0 ** wn[0], 10.0 ** sum(wn)), "tau": (10.0 ** tau[0], 10.0 ** sum(tau))}
        box["zeta"] = (10.0 ** (zeta[0] - zeta[1]), 10.0 ** zeta[0])
        drifts = oracle_grid(box, alphas)
        try:
            got = design_filter(box, alphas)
        except ValueError:
            assert drifts.size == 0
            return
        assert feasible(got, alphas)
        for key, value in zip(AXES, got.as_tuple()):
            assert box[key][0] <= value <= box[key][1]
        if drifts.size:
            assert h2_drift(got) <= drifts.min() * (1.0 + 1e-12)
