import numpy as np
import pytest

from agreelab.graph import Graph, degrees, laplacian, modal_transform, normalized_adjacency
from agreelab import protocol
from agreelab.lti import RationalTF, tf_feedback, tf_inverse, tf_poles, tf_zeros
from agreelab.numerics import Polynomial, lyapunov_solve
from agreelab.protocol import (
    AgentModel,
    ClassicConfig,
    TwoDofConfig,
    build_2dof,
    build_classic,
    check_agreement,
    check_cancellation,
    classic_noise_disagreement_variance,
    modal_analysis,
    mode_transfer,
)
from agreelab.sim import SignalSpec, integrate
from helpers import approx_equal

INTEGRATOR = RationalTF([1.0], [0.0, 1.0])
FD0 = RationalTF([-16.0, -7.586], [0.4143, 1.0])
PI = RationalTF([-8.777, -4.74], [0.0, 1.0])
FA = RationalTF([9.0], [9.0, 57.0, 61.0, 5.0])
DART = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
ZERO = SignalSpec.zero()


def integrator_agents(n, controller=None):
    return [AgentModel(INTEGRATOR, controller) for _ in range(n)]


def random_connected_graph(rng, n, p=0.65):
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        from agreelab.graph import is_connected

        if is_connected(g) and np.all(degrees(g) >= 1):
            return g


def random_stabilizing_fd(rng):
    a = rng.uniform(1.0, 5.0)
    b = rng.uniform(1.0, 5.0)
    c = rng.uniform(2.0, 10.0)
    return RationalTF([-c, -b], [a, 1.0])


class TestBuildClassic:
    def test_two_agent_unit_gain_averaging(self):
        g = Graph(2, [(1, 2)])
        loop = build_classic(g, integrator_agents(2), ClassicConfig(gains=1.0))
        assert np.allclose(loop.dynamics.A, [[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(loop.dynamics.B[:, :2], np.eye(2))
        assert np.allclose(loop.dynamics.B[:, 2:], np.eye(2))
        assert np.allclose(loop.dynamics.C, np.eye(2))
        assert np.allclose(loop.dynamics.D, 0.0)

    def test_dart_state_matrix_is_scaled_laplacian(self):
        loop = build_classic(DART, integrator_agents(5), ClassicConfig(gains=2.65))
        assert np.allclose(loop.dynamics.A, -2.65 * laplacian(DART))
        assert np.allclose(loop.dynamics.B[:, 5:], 2.65 * np.diag(degrees(DART)))

    def test_integrators_realize_minus_k_laplacian_exactly(self):
        # a hub joined to every other node plus the edge (2, 3): with F = 1
        # the loop is ydot = -k L y + k D n + d to the bit
        k, inexact = 2.65, []
        for n in range(3, 60):
            g = Graph(n, [(1, j) for j in range(2, n + 1)] + [(2, 3)])
            dyn = build_classic(g, integrator_agents(n), ClassicConfig(gains=k)).dynamics
            if not (np.array_equal(dyn.A, -k * laplacian(g))
                    and np.array_equal(dyn.B[:, n:], k * np.diag(degrees(g)))):
                inexact.append(n)
        assert inexact == []

    def test_noiseless_reaches_initial_average(self):
        loop = build_classic(DART, integrator_agents(5), ClassicConfig(gains=2.65))
        y0 = np.array([1.7, -0.3, 0.4, 0.9, -2.1])
        traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 12.0)
        assert np.allclose(traj.outputs[-1], y0.mean(), atol=1e-8)

    def test_mean_is_conserved(self):
        loop = build_classic(DART, integrator_agents(5), ClassicConfig(gains=1.3))
        y0 = np.array([1.0, 2.0, -0.5, 0.25, -1.0])
        traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 5.0)
        means = traj.outputs.mean(axis=1)
        assert np.max(np.abs(means - y0.mean())) <= 1e-9

    def test_heterogeneous_gains(self):
        gains = [1.0, 2.0, 0.5, 1.5, 3.0]
        loop = build_classic(DART, integrator_agents(5), ClassicConfig(gains=gains))
        K = np.diag(gains)
        assert np.allclose(loop.dynamics.A, -K @ laplacian(DART))

    def test_disconnected_rejected(self):
        g = Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="connected"):
            build_classic(g, integrator_agents(4), ClassicConfig(gains=1.0))

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_classic(DART, integrator_agents(5), ClassicConfig(gains=-1.0))

    def test_initial_condition_injection(self):
        loop = build_classic(DART, integrator_agents(5), ClassicConfig(gains=2.65))
        y0 = np.array([1.5, 0.75, 0.0, -0.75, -1.5])
        traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 0.01)
        assert np.allclose(traj.outputs[0], y0)


class TestBuild2Dof:
    def test_paper_controllers_build(self):
        loop = build_2dof(DART, integrator_agents(5, FD0), TwoDofConfig(FA))
        assert loop.dynamics.nstates == 30
        ev = np.linalg.eigvals(loop.dynamics.A)
        assert np.sum(np.abs(ev) < 1e-7) == 1  # single agreement pole at the origin
        assert np.max(np.sort(ev.real)[:-1]) < 0

    def test_feedforward_properness_enforced(self):
        # a biproper local controller makes P^{-1} - Fd relative degree -1
        # and Fa of relative degree 1 cannot absorb it
        fa1 = RationalTF([1.0], [1.0, 1.0])
        fd = RationalTF([-1.0, -1.0, -1.0], [1.0, 1.0])  # improper controller
        with pytest.raises(ValueError, match="unrealizable|stabilize"):
            build_2dof(DART, integrator_agents(5, fd), TwoDofConfig(fa1))

    def test_destabilizing_controller_rejected(self):
        bad = RationalTF([16.0, 7.586], [0.4143, 1.0])  # positive feedback
        with pytest.raises(ValueError, match="stabilize"):
            build_2dof(DART, integrator_agents(5, bad), TwoDofConfig(FA))

    def test_local_loops_are_checked_before_feedforwards(self):
        # agent 1's feedforward s - Fd_1 is improper, agent 2's loop is
        # unstable: the local-loop error is reported first
        agents = [AgentModel(INTEGRATOR, FD0), AgentModel(INTEGRATOR, RationalTF.constant(1.0))]
        g = Graph(2, [(1, 2)])
        cfg = TwoDofConfig(RationalTF.constant(1.0))
        for run in (build_2dof, modal_analysis):
            with pytest.raises(ValueError, match="^agent 2: local controller does not stabilize the plant$"):
                run(g, agents, cfg)

    def test_equal_agents_share_one_local_loop(self):
        """Each distinct (plant, controller) pair gets one local loop and
        one feedforward, equal to the agent's own, and the first failing
        agent of a repeated failing pair is named."""
        agents = integrator_agents(2, FD0) + integrator_agents(3, PI)
        analysis = modal_analysis(DART, agents, TwoDofConfig(FA))
        for tfs in (analysis.local_sensitivities, analysis.disturbance_transfers):
            assert tfs[0] is tfs[1] and tfs[2] is tfs[3] is tfs[4] and tfs[1] is not tfs[2]
        for S, Td, a in zip(analysis.local_sensitivities, analysis.disturbance_transfers, agents):
            S_own, Td_own = tf_feedback(a.plant, a.local_controller)
            for tf, own in ((S, S_own), (Td, Td_own)):
                assert np.array_equal(tf.num.coeffs, own.num.coeffs)
                assert np.array_equal(tf.den.coeffs, own.den.coeffs)
        bad = RationalTF([16.0, 7.586], [0.4143, 1.0])
        agents = integrator_agents(2, FD0) + integrator_agents(3, bad)
        for run in (build_2dof, modal_analysis):
            with pytest.raises(ValueError, match="^agent 3: local controller does not stabilize the plant$"):
                run(DART, agents, TwoDofConfig(FA))

    def test_missing_controller_rejected(self):
        with pytest.raises(ValueError, match="local controller"):
            build_2dof(DART, integrator_agents(5), TwoDofConfig(FA))

    def test_zero_filter_decouples_network(self):
        fa0 = RationalTF.constant(0.0)
        loop = build_2dof(DART, integrator_agents(5, FD0), TwoDofConfig(fa0))
        y0 = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 6.0)
        # each agent runs its local loop S_i alone: same controller, so
        # outputs are proportional to their own initial conditions
        S, _ = tf_feedback(INTEGRATOR, FD0)
        assert np.all(tf_poles(S).real < 0)
        assert np.allclose(traj.outputs[-1], 0.0, atol=1e-6)
        scaled = traj.outputs[:, 0] * (-1.0)
        assert np.allclose(scaled, traj.outputs[:, 1], atol=1e-9)

    def test_noise_channel_matches_modal_form(self):
        loop = build_2dof(DART, integrator_agents(5, FD0), TwoDofConfig(FA))
        md = modal_transform(DART)
        rng = np.random.default_rng(4)
        for w in rng.uniform(0.05, 25.0, 10):
            s = 1j * w
            modal = md.Uinv @ np.diag([mode_transfer(FA, a)(s) for a in md.alphas]) @ md.U
            modal = modal * FA(s)
            built = loop.noise_transfer(s)
            denom = np.max(np.abs(modal))
            assert np.max(np.abs(built - modal)) <= 1e-7 * denom

    def test_noise_channel_independent_of_local_controllers(self):
        loops = [
            build_2dof(DART, integrator_agents(5, FD0), TwoDofConfig(FA)),
            build_2dof(DART, integrator_agents(5, PI), TwoDofConfig(FA)),
        ]
        rng = np.random.default_rng(8)
        for w in rng.uniform(0.1, 10.0, 6):
            s = 1j * w
            t0 = loops[0].noise_transfer(s)
            t1 = loops[1].noise_transfer(s)
            assert np.max(np.abs(t0 - t1)) <= 1e-7 * np.max(np.abs(t0))

    def test_modal_equivalence_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n)
            agents = [AgentModel(INTEGRATOR, random_stabilizing_fd(rng)) for _ in range(n)]
            loop = build_2dof(g, agents, TwoDofConfig(FA))
            md = modal_transform(g)
            for w in rng.uniform(0.1, 15.0, 10):
                s = 1j * w
                modal = md.Uinv @ np.diag(
                    [mode_transfer(FA, a)(s) for a in md.alphas]
                ) @ md.U * FA(s)
                built = loop.noise_transfer(s)
                assert np.max(np.abs(built - modal)) <= 1e-7 * np.max(np.abs(modal))


class TestModalAnalysis:
    def test_alpha_zero_mode_is_unity(self):
        t = mode_transfer(FA, 0.0)
        assert approx_equal(t, RationalTF.constant(1.0))

    def test_agreement_mode_denominator(self):
        analysis = modal_analysis(DART, integrator_agents(5, FD0), TwoDofConfig(FA))
        t1 = mode_transfer(FA, analysis.alphas[0])
        assert approx_equal(t1.den, Polynomial([0.0, 57.0 / 5, 61.0 / 5, 1.0]))

    def test_dart_negative_half_mode(self):
        t = mode_transfer(FA, -0.5)
        assert approx_equal(t.num, Polynomial([9.0 / 5, 57.0 / 5, 61.0 / 5, 1.0]))
        assert approx_equal(t.den, Polynomial([13.5 / 5, 57.0 / 5, 61.0 / 5, 1.0]))
        assert np.all(tf_poles(t).real < 0)


class TestCheckAgreement:
    def test_dart_filter_passes_with_origin_pole(self):
        md = modal_transform(DART)
        cert = check_agreement(FA, md.alphas)
        assert cert.passed
        assert cert.agreement_poles.size == 1
        assert abs(cert.agreement_poles[0]) < 1e-9

    def test_first_order_filter_passes(self):
        fa = RationalTF([1.0], [1.0, 1.0])
        cert = check_agreement(fa, [1.0, 0.4, -0.6, -1.0])
        assert cert.passed
        assert abs(cert.agreement_poles[0]) < 1e-9

    def test_high_gain_filter_fails_at_agreement_mode(self):
        fa = RationalTF([2.0], [1.0, 1.0])
        cert = check_agreement(fa, [1.0, 0.2, -0.5])
        assert not cert.passed
        assert any(a == 1.0 for a, _ in cert.failures)

    @pytest.mark.parametrize("fa, alphas, failures", [
        (RationalTF([0.0, 1.0], [1.0, 1.0]), [1.0, -0.5], [(1.0, "improper agreement mode")]),
        (RationalTF([1.0], [1.0, 0.0, 1.0]), [1.0, -0.5], [
            (1.0, "repeated imaginary-axis agreement pole"),  # double pole at the origin
            (-0.5, "unstable mode"),
        ]),
        (RationalTF([0.0, 2.0], [1.0, 1.0]), [1.0, 0.5], [
            (1.0, "unstable agreement mode"),
            (0.5, "improper mode"),
        ]),
    ])
    def test_failure_reasons(self, fa, alphas, failures):
        cert = check_agreement(fa, alphas)
        assert not cert.passed
        assert cert.failures == failures
        assert cert.agreement_poles.size == 0

    def test_missing_agreement_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue 1"):
            check_agreement(FA, [0.5, -0.5])

    def test_verdict_depends_only_on_filter_and_spectrum(self):
        md = modal_transform(DART)
        cert_a = check_agreement(FA, md.alphas)
        cert_b = check_agreement(FA, md.alphas)
        assert cert_a.passed == cert_b.passed
        assert np.allclose(cert_a.agreement_poles, cert_b.agreement_poles)


class TestCheckCancellation:
    def test_all_pi_sensitivities_hold(self):
        S, _ = tf_feedback(INTEGRATOR, PI)
        verdict = check_cancellation(0.0, [S] * 5)
        assert verdict.holds
        assert verdict.verdict == "NECESSARY-CONDITION-HOLDS"

    def test_mixed_disturbance_path_excluded(self):
        _, td_pi = tf_feedback(INTEGRATOR, PI)
        _, td_5 = tf_feedback(INTEGRATOR, FD0)
        verdict = check_cancellation(0.0, [td_pi] * 4 + [td_5])
        assert not verdict.holds
        assert verdict.verdict == "CANCELLATION-EXCLUDED"
        assert verdict.vanishes == [True, True, True, True, False]

    def test_zeros_taken_once_per_distinct_transfer(self, monkeypatch):
        _, td_pi = tf_feedback(INTEGRATOR, PI)
        _, td_5 = tf_feedback(INTEGRATOR, FD0)
        calls = []
        monkeypatch.setattr(protocol, "tf_zeros", lambda tf: calls.append(tf) or tf_zeros(tf))
        copy = RationalTF(td_5.num, td_5.den)  # equal coefficients, another object
        verdict = check_cancellation(0.0, [td_pi, td_5, td_pi, copy, td_pi])
        assert verdict.vanishes == [True, False, True, False, True]
        assert calls == [td_pi, td_5]

    def test_static_loop_excluded(self):
        S, _ = tf_feedback(RationalTF([1.0], [1.0, 1.0]), RationalTF.constant(-2.0))
        verdict = check_cancellation(0.0, [S])
        assert not verdict.holds

    def test_off_axis_pole_rejected(self):
        S, _ = tf_feedback(INTEGRATOR, PI)
        with pytest.raises(ValueError, match="imaginary-axis"):
            check_cancellation(1.0, [S])


class TestAgreementSimulationOracle:
    def test_certificate_matches_simulation_small_sample(self):
        rng = np.random.default_rng(101)
        fast_fa = RationalTF(
            [9.0],
            (Polynomial([1.0, 0.4]) * Polynomial([9.0, 5.4, 1.0])).coeffs,
        )  # (3, 0.4, 0.9) family member: fast modes
        bad_fa = RationalTF([2.0], [1.0, 1.0])
        pool = [fast_fa, bad_fa]
        seen = {True: 0, False: 0}
        for trial in range(8):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n)
            md = modal_transform(g)
            if md.alphas[1] > 0.6:
                continue
            agents = [AgentModel(INTEGRATOR, random_stabilizing_fd(rng)) for _ in range(n)]
            fa = pool[trial % 2]
            cert = check_agreement(fa, md.alphas)
            loop = build_2dof(g, agents, TwoDofConfig(fa))
            y0 = rng.uniform(-2.0, 2.0, n)
            spread = float(np.max(y0) - np.min(y0))
            if spread < 0.5:
                y0[0] += 1.0
                spread = float(np.max(y0) - np.min(y0))
            try:
                traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 40.0)
                gap = float(np.max(traj.outputs[-1]) - np.min(traj.outputs[-1]))
                agrees = gap <= 1e-4 * spread
            except RuntimeError:
                agrees = False
            assert cert.passed == agrees
            seen[cert.passed] += 1
        assert seen[True] > 0 and seen[False] > 0


class TestNoiseModelResolution:
    def test_per_link_reproduces_published_variance(self):
        per_link = classic_noise_disagreement_variance(DART, 2.65, "per-link")
        per_agent = classic_noise_disagreement_variance(DART, 2.65, "per-agent")
        assert per_link == pytest.approx(0.9858, abs=1e-6)
        assert abs(per_agent - 0.9858) > 0.1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="noise model"):
            classic_noise_disagreement_variance(DART, 2.65, "per-edge")

    @pytest.mark.parametrize("model", ["per-link", "per-agent"])
    def test_eigen_sum_matches_reduced_lyapunov(self, model):
        # oracle: Kronecker Lyapunov solve of ydot = -kLy + kBn on an
        # orthonormal basis of the disagreement subspace
        rng = np.random.default_rng(2012)
        for _ in range(40):
            nu = int(rng.integers(2, 13))
            g = random_connected_graph(rng, nu, p=rng.uniform(0.2, 0.9))
            k = 10.0 ** rng.uniform(-1.0, 1.0)
            d = degrees(g)
            B = k * np.diag(np.sqrt(d) if model == "per-link" else d)
            basis = np.eye(nu)
            basis[:, 0] = 1.0
            Qp = np.linalg.qr(basis)[0][:, 1:]
            X = lyapunov_solve(Qp.T @ (-k * laplacian(g)) @ Qp, Qp.T @ B @ B.T @ Qp)
            oracle = float(np.trace(X)) / nu
            got = classic_noise_disagreement_variance(g, k, model)
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("g", [
        Graph(4, [(1, 2), (3, 4)]),
        Graph(5, [(1, 2), (3, 4), (4, 5)]),
        Graph(3, [(1, 2)]),
    ])
    def test_disconnected_graph_rejected(self, g):
        with pytest.raises(ValueError, match="connected"):
            classic_noise_disagreement_variance(g, 2.65)


def seeded_graph(n, chords, seed):
    """A path of n nodes plus `chords` seeded random chords."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(1, n)}
    while len(edges) < n - 1 + chords:
        i, j = sorted(rng.choice(np.arange(1, n + 1), 2, replace=False).tolist())
        edges.add((i, j))
    return Graph(n, edges)


LAG2 = RationalTF([-4.0, -10.0], [5.0, 1.0])  # stabilizes 1/(s (s + 1)) locally
UNIFORM_LOOPS = {
    "classic-static-1": lambda g: build_classic(g, integrator_agents(g.n), ClassicConfig(gains=2.65)),
    "classic-filter-1": lambda g: build_classic(
        g, integrator_agents(g.n), ClassicConfig(gains=2.65, shared_filter=RationalTF([2.0], [2.0, 1.0]))),
    "classic-static-2": lambda g: build_classic(
        g, [AgentModel(RationalTF([1.0, 4.0, 1.0], [2.0, 3.0, 1.0]))] * g.n, ClassicConfig(gains=1.3)),
    "classic-filter-2": lambda g: build_classic(
        g, [AgentModel(RationalTF([1.0], [0.0, 1.0, 1.0]))] * g.n,
        ClassicConfig(gains=0.7, shared_filter=RationalTF([1.0, 3.0], [2.0, 1.0]))),
    "2dof-lag": lambda g: build_2dof(g, integrator_agents(g.n, FD0), TwoDofConfig(FA)),
    "2dof-2-state": lambda g: build_2dof(
        g, [AgentModel(RationalTF([1.0], [0.0, 1.0, 1.0]), LAG2)] * g.n, TwoDofConfig(FA)),
}


class TestModalFactor:
    """A uniform network's loop splits into decoupled modes under
    x = T z, T = P (M kron I_b), P the permutation that lists the states
    in `order` (protocol.ModalFactor)."""

    @staticmethod
    def split(loop):
        """(T^{-1} A T, M^{-1} C T) and each modal state's mode."""
        f, nu = loop.modal, loop.nagents
        b = f.order.size // nu
        P = np.eye(f.order.size)[:, f.order]
        T = P @ np.kron(f.transform, np.eye(b))
        Tinv = np.kron(f.inverse, np.eye(b)) @ P.T
        return Tinv @ loop.dynamics.A @ T, f.inverse @ loop.dynamics.C @ T, np.repeat(np.arange(nu), b)

    @pytest.mark.parametrize("n, seed", [(12, 0), (12, 1), (60, 2)])
    @pytest.mark.parametrize("name", list(UNIFORM_LOOPS))
    def test_off_mode_entries_vanish(self, name, n, seed):
        loop = UNIFORM_LOOPS[name](seeded_graph(n, n, seed))
        A, C, mode = self.split(loop)
        assert np.allclose(loop.modal.transform @ loop.modal.inverse, np.eye(n), atol=1e-12)
        off = mode[:, None] != mode[None, :]
        assert np.max(np.abs(A[off])) <= 1e-12 * np.max(np.abs(loop.dynamics.A))
        # the outputs mix as the states: row k of M^{-1} C T lies in mode k
        off = np.arange(n)[:, None] != mode[None, :]
        assert np.max(np.abs(C[off])) <= 1e-12 * np.max(np.abs(loop.dynamics.C))

    def test_order_lists_each_agents_states(self):
        # plants 2 states each (0-9), Fd 1 (10-14), feedforward 4 (15-34)
        loop = UNIFORM_LOOPS["2dof-2-state"](DART)
        order = loop.modal.order.reshape(5, 7)
        assert order[0].tolist() == [0, 1, 10, 15, 16, 17, 18]
        assert np.array_equal(order, order[0] + np.array([2, 2, 1, 4, 4, 4, 4]) * np.arange(5)[:, None])
        assert loop.dynamics.A.shape[0] == 35
        # a static shared filter adds no states
        assert UNIFORM_LOOPS["classic-static-1"](DART).modal.order.tolist() == list(range(5))

    def test_dist_pi_twodof_has_no_factor(self):
        from agreelab.scenarios import load_scenario

        configs = load_scenario("dist-pi")
        assert configs["twodof"].build_loop().modal is None
        assert configs["classic"].build_loop().modal is not None

    def test_unequal_gains_have_no_factor(self):
        assert build_classic(DART, integrator_agents(5), ClassicConfig(gains=[2.65] * 4 + [1.0])).modal is None
        assert build_classic(DART, integrator_agents(5), ClassicConfig(gains=[2.65] * 5)).modal is not None

    @pytest.mark.parametrize("g", [DART, Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])], ids=["dart", "ring"])
    def test_bit_equal_agents_share_a_factor_and_realizations(self, g, monkeypatch):
        # separate transfer objects with equal bits: one key, so one
        # realization each of the plant, Fd and the feedforward
        keys = []
        realize = protocol.tf_to_ss
        monkeypatch.setattr(protocol, "tf_to_ss", lambda tf: keys.append(protocol._coefficients(tf)) or realize(tf))
        agents = [AgentModel(RationalTF([1.0], [0.0, 1.0]), RationalTF([-16.0, -7.586], [0.4143, 1.0]))
                  for _ in range(g.n)]
        assert build_2dof(g, agents, TwoDofConfig(FA)).modal is not None
        assert len(keys) == len(set(keys)) == 3

    def test_one_coefficient_bit_apart_is_not_uniform(self, monkeypatch):
        # -1/(-s) is 1/s with -0.0 in its denominator: equal values, other
        # bits, so its own realization and no modal factor
        odd = RationalTF([-1.0], [0.0, -1.0])
        assert np.array_equal(odd.den.coeffs, INTEGRATOR.den.coeffs)
        assert odd.den.coeffs.tobytes() != INTEGRATOR.den.coeffs.tobytes()
        keys = []
        realize = protocol.tf_to_ss
        monkeypatch.setattr(protocol, "tf_to_ss", lambda tf: keys.append(protocol._coefficients(tf)) or realize(tf))
        agents = integrator_agents(4, FD0) + [AgentModel(odd, FD0)]
        for loop in (build_2dof(DART, agents, TwoDofConfig(FA)), build_classic(DART, agents, ClassicConfig(1.0))):
            assert loop.modal is None
        assert keys.count(protocol._coefficients(odd)) == keys.count(protocol._coefficients(INTEGRATOR)) == 2

    def test_per_agent_lists(self):
        # equal agents given one by one are uniform; one different plant
        # or controller is not
        equal = [AgentModel(RationalTF([1.0], [0.0, 1.0]), RationalTF([-16.0, -7.586], [0.4143, 1.0]))
                 for _ in range(5)]
        assert build_2dof(DART, equal, TwoDofConfig(FA)).modal is not None
        assert build_classic(DART, equal, ClassicConfig(gains=1.0)).modal is not None
        plant = equal[:4] + [AgentModel(RationalTF([2.0], [0.0, 1.0]), FD0)]
        assert build_2dof(DART, plant, TwoDofConfig(FA)).modal is None
        assert build_classic(DART, plant, ClassicConfig(gains=1.0)).modal is None
        assert build_2dof(DART, equal[:4] + [AgentModel(INTEGRATOR, PI)], TwoDofConfig(FA)).modal is None


class TestAssemblyOracle:
    """Both channels of an assembled loop against the agent-level closed
    forms, on a seeded network of unequal agents."""

    POINTS = 1j * np.array([0.1, 0.5, 1.3, 4.0, 20.0])
    PLANT2 = RationalTF([3.0, 1.0], [2.0, 2.0, 1.0])  # (s + 3)/(s^2 + 2 s + 2)
    LAG1 = RationalTF([2.0], [2.0, 1.0])  # as Fa, the 2DOF feedforwards feed through

    @staticmethod
    def diag(tfs, s):
        return np.diag([t(s) for t in tfs])

    def assert_matches(self, loop, want):
        for s in self.POINTS:
            built, expected = loop.dynamics.eval(s), want(s)
            assert np.max(np.abs(built - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert np.allclose(loop.dynamics.C @ loop.x0_map, np.eye(loop.nagents), rtol=0.0, atol=1e-14)

    def test_twodof(self):
        g = seeded_graph(8, 6, 3)
        fds = [FD0, PI, RationalTF.constant(-3.0)] * 3
        agents = [AgentModel(INTEGRATOR, fd) for fd in fds[:7]] + [AgentModel(self.PLANT2, PI)]
        loop = build_2dof(g, agents, TwoDofConfig(self.LAG1))
        tds = [tf_feedback(a.plant, a.local_controller)[1] for a in agents]
        adjn = normalized_adjacency(g)

        def want(s):
            fa = self.LAG1(s)
            return np.linalg.solve(np.eye(8) - fa * adjn, np.hstack([self.diag(tds, s), fa * np.eye(8)]))

        self.assert_matches(loop, want)
        for a in agents:  # both banks feed through
            kff = (tf_inverse(a.plant) - a.local_controller) * self.LAG1
            assert not a.local_controller.is_strictly_proper and not kff.is_strictly_proper

    def test_classic(self):
        g = seeded_graph(8, 6, 4)
        plants = [INTEGRATOR, RationalTF([1.0], [1.0, 1.0]), self.PLANT2, INTEGRATOR] * 2
        gains = np.linspace(0.6, 2.4, 8)
        F = self.LAG1
        loop = build_classic(g, [AgentModel(p) for p in plants], ClassicConfig(gains=gains, shared_filter=F))
        kd = np.diag(gains * degrees(g))
        my = normalized_adjacency(g) - np.eye(8)

        def want(s):
            P, kdf = self.diag(plants, s), kd * F(s)
            return np.linalg.solve(np.eye(8) - P @ kdf @ my, P @ np.hstack([np.eye(8), kdf]))

        self.assert_matches(loop, want)

    def test_algebraic_loop_rejected(self):
        # y = -0.5 (u + d) at high frequency and u = y_2 - y_1: I - D_p D_c is singular
        plant = RationalTF([1.0, -0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="^algebraic loop"):
            build_classic(Graph(2, [(1, 2)]), [AgentModel(plant)] * 2, ClassicConfig(gains=1.0))

    def test_static_plant_rejected(self):
        agents = integrator_agents(4) + [AgentModel(RationalTF.constant(2.0))]
        cfg = ClassicConfig(gains=1.0, shared_filter=RationalTF([1.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="^cannot set an initial output level on a static plant$"):
            build_classic(DART, agents, cfg)
