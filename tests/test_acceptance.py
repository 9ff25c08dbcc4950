"""Acceptance suite.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line.  The
criteria run at their stated tolerances against externally sourced
target values; where a target is itself inconsistent with two
independent computations, the test states both numbers in its failure
message (see criterion 2b).
"""

import time

import numpy as np
import pytest

from agreelab.design import FilterParams, feasible, h2_drift, make_filter
from agreelab.graph import (
    Graph,
    degrees,
    is_connected,
    modal_transform,
    find_graphs_by_spectrum,
)
from agreelab.lti import RationalTF, h2_norm_sq
from agreelab.numerics import Polynomial, poly_sub, routh_hurwitz_stable, lyapunov_solve
from agreelab.protocol import (
    AgentModel,
    TwoDofConfig,
    build_2dof,
    check_agreement,
    check_cancellation,
    classic_noise_disagreement_variance,
    mode_transfer,
)
from agreelab.lti import tf_feedback, tf_to_ss
from agreelab.sim import SignalSpec, integrate
from agreelab.scenarios import run_scenario

DART_SPECTRUM = [
    1.0,
    (np.sqrt(33) - 3) / 12,
    0.0,
    -0.5,
    -(np.sqrt(33) + 3) / 12,
]
INTEGRATOR = RationalTF([1.0], [0.0, 1.0])
FD0 = RationalTF([-16.0, -7.586], [0.4143, 1.0])
PI = RationalTF([-8.777, -4.74], [0.0, 1.0])
DART = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
ZERO = SignalSpec.zero()


def _report(num: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")


def drift_tf(p: FilterParams) -> RationalTF:
    fa = make_filter(p)
    cleared = poly_sub(fa.den, fa.num)
    return RationalTF(fa.num, Polynomial(cleared.coeffs[1:]))


def random_connected_graph(rng, n, p=0.65, alpha2_max=0.6):
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if not (is_connected(g) and np.all(degrees(g) >= 1)):
            continue
        if modal_transform(g).alphas[1] <= alpha2_max:
            return g


def random_stabilizing_fd(rng):
    return RationalTF(
        [-rng.uniform(2.0, 10.0), -rng.uniform(1.0, 5.0)],
        [rng.uniform(1.0, 5.0), 1.0],
    )


def test_criterion_01_graph_recovery():
    t0 = time.perf_counter()
    found = find_graphs_by_spectrum(5, DART_SPECTRUM)
    elapsed = time.perf_counter() - t0
    unique = len(found) == 1
    spectrum_ok = False
    if unique:
        md = modal_transform(found[0])
        spectrum_ok = bool(
            np.max(np.abs(np.sort(md.alphas) - np.sort(DART_SPECTRUM))) <= 1e-10
        )
    ok = unique and spectrum_ok and elapsed < 5.0
    _report("01", "graph recovery from spectrum", ok, f"{elapsed:.2f} s")
    assert unique, f"expected exactly one isomorphism class, got {len(found)}"
    assert spectrum_ok
    assert elapsed < 5.0


def test_criterion_02a_closed_form_matches_lyapunov():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 200:
        p = FilterParams(
            rng.uniform(0.3, 6.0), rng.uniform(0.2, 8.0), rng.uniform(0.3, 4.0)
        )
        if not feasible(p):
            continue
        closed = h2_drift(p)
        lyap = h2_norm_sq(drift_tf(p))
        worst = max(worst, abs(closed - lyap) / lyap)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        "02a", "drift closed form = Lyapunov norm (200 random)", ok,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02b_reported_value_at_reference_point():
    p = FilterParams(3.0, 5.0, 2.0)
    closed = h2_drift(p)
    lyap = h2_norm_sq(drift_tf(p))
    target = 27.0 / 2074.0  # documented target: 0.0130183
    ok = (
        abs(closed - target) <= 1e-8 * target
        and abs(lyap - target) <= 1e-8 * target
    )
    _report(
        "02b", "reported drift value 27/2074 at (3, 5, 2)", ok,
        f"closed form = Lyapunov = quadrature = {closed:.10f} = 27/2318",
    )
    assert abs(lyap - closed) <= 1e-12, "internal cross-check must agree"
    assert ok, (
        f"documented target 27/2074 = {target:.10f} is not the squared H2 norm "
        f"of the realized system: Lyapunov solve, symbolic gramian and "
        f"frequency-domain quadrature all give 27/2318 = {closed:.10f} "
        f"(the target's first denominator factor reads 2*wn*tau + 2*zeta "
        f"where the gramian gives 2*wn*tau + 4*zeta); see README.md, "
        f"'Known acceptance discrepancy'"
    )


def test_criterion_03_certificate_vs_simulation_oracle():
    rng = np.random.default_rng(303)
    fast_fa = make_filter(FilterParams(3.0, 0.4, 0.9))
    first_order = RationalTF([1.0], [1.0, 1.0])
    bad_gain = RationalTF([2.0], [1.0, 1.0])
    tiny_zeta = make_filter(FilterParams(2.0, 5.0, 1e-3))
    pool = [fast_fa, bad_gain, first_order, tiny_zeta]
    disagreements = 0
    outcomes = {True: 0, False: 0}
    for trial in range(50):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n)
        agents = [AgentModel(INTEGRATOR, random_stabilizing_fd(rng)) for _ in range(n)]
        fa = pool[trial % len(pool)]
        cert = check_agreement(fa, modal_transform(g).alphas)
        loop = build_2dof(g, agents, TwoDofConfig(fa))
        y0 = rng.uniform(-2.0, 2.0, n)
        if np.max(y0) - np.min(y0) < 0.5:
            y0[int(np.argmax(y0))] += 1.0
        spread = float(np.max(y0) - np.min(y0))
        try:
            traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 40.0)
            gap = float(np.max(traj.outputs[-1]) - np.min(traj.outputs[-1]))
            agrees = gap <= 1e-4 * spread
        except RuntimeError:
            agrees = False
        if cert.passed != agrees:
            disagreements += 1
        outcomes[cert.passed] += 1
    ok = disagreements == 0 and outcomes[True] >= 10 and outcomes[False] >= 10
    _report(
        "03", "agreement certificate = simulation oracle (50 instances)", ok,
        f"{outcomes[True]} pass / {outcomes[False]} fail instances",
    )
    assert disagreements == 0
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def _modal_noise_mismatch(g, agents, fa, rng) -> float:
    loop = build_2dof(g, agents, TwoDofConfig(fa))
    md = modal_transform(g)
    worst = 0.0
    for w in rng.uniform(0.05, 20.0, 10):
        s = 1j * w
        modal = md.Uinv @ np.diag([mode_transfer(fa, a)(s) for a in md.alphas]) @ md.U
        modal = modal * fa(s)
        built = loop.noise_transfer(s)
        worst = max(worst, np.max(np.abs(built - modal)) / np.max(np.abs(modal)))
    return worst


def test_criterion_04_modal_equivalence():
    rng = np.random.default_rng(404)
    fa_ref = make_filter(FilterParams(3.0, 5.0, 2.0))
    worst = _modal_noise_mismatch(DART, [AgentModel(INTEGRATOR, FD0)] * 5, fa_ref, rng)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, alpha2_max=1.0)
        agents = [AgentModel(INTEGRATOR, random_stabilizing_fd(rng)) for _ in range(n)]
        fa = make_filter(
            FilterParams(rng.uniform(0.5, 4.0), rng.uniform(0.3, 6.0), rng.uniform(0.5, 3.0))
        )
        worst = max(worst, _modal_noise_mismatch(g, agents, fa, rng))
    ok = worst <= 1e-7
    _report("04", "modal noise-channel equivalence", ok, f"worst rel err {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_05_nominal_settling(tmp_path):
    t0 = time.perf_counter()
    metrics = run_scenario("nominal", tmp_path / "nominal")
    elapsed = time.perf_counter() - t0
    classic = metrics["classic_settling_time_s"]
    twodof = metrics["twodof_settling_time_s"]
    ok = (
        abs(classic - 1.433) <= 0.10 * 1.433
        and abs(twodof - 1.432) <= 0.10 * 1.432
        and elapsed < 30.0
    )
    _report(
        "05", "nominal settling times", ok,
        f"classic {classic:.3f} s vs 1.433, twodof {twodof:.3f} s vs 1.432, {elapsed:.1f} s",
    )
    assert abs(classic - 1.433) <= 0.10 * 1.433
    assert abs(twodof - 1.432) <= 0.10 * 1.432
    assert elapsed < 30.0


def test_criterion_06_noise_drift(tmp_path):
    t0 = time.perf_counter()
    metrics = run_scenario("noise", tmp_path / "noise")
    elapsed = time.perf_counter() - t0
    classic = metrics["classic_drift_slope"]
    ratio = metrics["drift_slope_ratio"]
    norm_ratio = metrics["disagreement_norm_ratio"]
    ok = (
        abs(classic - 0.53) <= 0.20 * 0.53
        and ratio <= 0.05
        and norm_ratio <= 0.2
        and metrics["classic_realizations"] == 200
        and elapsed < 600.0
    )
    _report(
        "06", "noise drift and disagreement ratios", ok,
        f"classic slope {classic:.3f} vs 0.53, slope ratio {ratio:.2e}, "
        f"norm ratio {norm_ratio:.3f}, {elapsed:.0f} s",
    )
    assert metrics["classic_realizations"] == 200
    assert abs(classic - 0.53) <= 0.20 * 0.53
    assert ratio <= 0.05
    assert norm_ratio <= 0.2
    assert elapsed < 600.0


def test_criterion_07_noise_variance_resolution(tmp_path):
    per_link = classic_noise_disagreement_variance(DART, 2.65, "per-link")
    per_agent = classic_noise_disagreement_variance(DART, 2.65, "per-agent")
    metrics = run_scenario("noise", tmp_path / "noise7", realizations=1)
    documented = (
        metrics.get("noise_model") == "per-link"
        and metrics.get("noise_variance_selected") == pytest.approx(per_link)
    )
    ok = abs(per_link - 0.9858) <= 1e-2 and documented
    _report(
        "07", "steady-state disagreement variance resolution", ok,
        f"per-link {per_link:.6f} vs 0.9858, per-agent {per_agent:.4f}, "
        f"model documented: {documented}",
    )
    assert abs(per_link - 0.9858) <= 1e-2
    assert documented


def test_criterion_08_disturbance_behavior(tmp_path):
    dist = run_scenario("dist", tmp_path / "dist")
    dist_pi = run_scenario("dist-pi", tmp_path / "dist_pi")
    classic_slope = dist["classic_ramp_slope"]
    twodof_slope = dist["twodof_ramp_slope"]
    slope_ratio = dist["ramp_slope_ratio"]
    diverge_ok = classic_slope > 0 and twodof_slope > 0 and slope_ratio < 0.5
    bounded = np.isfinite(dist_pi["twodof_sup_norm_40_60"])
    non_increasing = (
        dist_pi["twodof_sup_norm_40_60"] <= dist_pi["twodof_sup_norm_20_40"] * 1.05
    )
    gaps_vanish = (
        dist_pi["twodof_gap_at_60"] <= 0.1 * dist_pi["twodof_gap_at_20"]
        and dist_pi["twodof_gap_at_60"] <= 1e-3
    )
    ok = diverge_ok and bounded and non_increasing and gaps_vanish
    _report(
        "08", "disturbance behavior", ok,
        f"ramps {classic_slope:.3f}/{twodof_slope:.5f} ratio {slope_ratio:.4f}; "
        f"pi sup {dist_pi['twodof_sup_norm_20_40']:.4f}->{dist_pi['twodof_sup_norm_40_60']:.4f}, "
        f"gap {dist_pi['twodof_gap_at_20']:.2e}->{dist_pi['twodof_gap_at_60']:.2e}",
    )
    assert diverge_ok
    assert bounded and non_increasing and gaps_vanish


def test_criterion_09_cancellation_checker():
    _, td_pi = tf_feedback(INTEGRATOR, PI)
    _, td_5 = tf_feedback(INTEGRATOR, FD0)
    mixed = check_cancellation(0.0, [td_pi] * 4 + [td_5])
    all_pi = check_cancellation(0.0, [td_pi] * 5)
    td5_dc = td_5(0.0)
    ok = (
        mixed.verdict == "CANCELLATION-EXCLUDED"
        and all_pi.verdict == "NECESSARY-CONDITION-HOLDS"
        and td5_dc == pytest.approx(0.4143 / 16.0, rel=1e-12)
    )
    _report(
        "09", "cancellation necessary-condition checker", ok,
        f"mixed {mixed.verdict}, all-PI {all_pi.verdict}, Td5(0) = {td5_dc:.8f}",
    )
    assert mixed.verdict == "CANCELLATION-EXCLUDED"
    assert all_pi.verdict == "NECESSARY-CONDITION-HOLDS"
    assert td5_dc == pytest.approx(0.4143 / 16.0, rel=1e-12)


def test_criterion_10_numerics_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)

    # Routh-Hurwitz agrees with exact root signs on 1000 samples
    rh_fail = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        re = rng.uniform(0.05, 3.0, n) * rng.choice([-1.0, 1.0], n)
        im = rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.5)
        roots = []
        for a, b in zip(re, im):
            roots += [a] if b == 0.0 else [a + 1j * b, a - 1j * b]
        p = Polynomial.from_roots(roots, leading=rng.uniform(0.5, 2.0))
        if routh_hurwitz_stable(p) != (max(r.real for r in roots) < 0):
            rh_fail += 1

    # realization round-trips
    rt_fail = 0
    for _ in range(30):
        nd = int(rng.integers(1, 7))
        den = Polynomial.from_roots(-rng.uniform(0.2, 5.0, nd))
        num = Polynomial(rng.uniform(-2.0, 2.0, int(rng.integers(1, nd + 2))))
        g = RationalTF(num, den)
        if not g.is_proper:
            g = RationalTF(num, den * Polynomial([1.0, 1.0]))
        ss = tf_to_ss(g)
        for w in rng.uniform(0.1, 10.0, 10):
            s = 1j * w
            if abs(ss.eval(s)[0, 0] - g(s)) > 1e-9 * max(1.0, abs(g(s))):
                rt_fail += 1

    # Lyapunov residuals
    ly_fail = 0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        A = -(m @ m.T) - np.eye(n)
        B = rng.normal(size=(n, 2))
        X = lyapunov_solve(A, B @ B.T)
        res = np.linalg.norm(A @ X + X @ A.T + B @ B.T)
        if res > 1e-9 * max(1.0, np.linalg.norm(B @ B.T)):
            ly_fail += 1

    # integrator order-4 convergence
    from agreelab.lti import StateSpace
    from agreelab.protocol import ClosedLoop
    from agreelab.sim import integrate as sim_integrate

    sys1 = StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
    loop = ClosedLoop(dynamics=sys1, x0_map=np.array([[1.0]]), nagents=1)
    steps = [1e-2, 5e-3, 2.5e-3]
    errs = [
        abs(sim_integrate(loop, ZERO, ZERO, [1.0], dt, 1.0).outputs[-1, 0] - np.exp(-1.0))
        for dt in steps
    ]
    slopes = np.diff(np.log(errs)) / np.diff(np.log(steps))
    order_ok = bool(np.all(np.abs(slopes - 4.0) <= 0.3))

    elapsed = time.perf_counter() - t0
    ok = rh_fail == 0 and rt_fail == 0 and ly_fail == 0 and order_ok and elapsed < 120.0
    _report(
        "10", "numerics invariant suite", ok,
        f"rh {rh_fail}, roundtrip {rt_fail}, lyapunov {ly_fail}, "
        f"order slopes {np.round(slopes, 2).tolist()}, {elapsed:.1f} s",
    )
    assert rh_fail == 0
    assert rt_fail == 0
    assert ly_fail == 0
    assert order_ok
    assert elapsed < 120.0
