import csv
import os
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from agreelab import _kernels, sim
from agreelab.design import FilterParams, make_filter
from agreelab.graph import Graph
from agreelab.lti import RationalTF, StateSpace
from agreelab.protocol import (
    AgentModel,
    ClassicConfig,
    ClosedLoop,
    TwoDofConfig,
    build_2dof,
    build_classic,
)
from agreelab.scenarios import load_scenario
from agreelab.sim import (
    _CHUNK,
    _CSV_ROWS,
    _JUMP,
    DIVERGENCE_LIMIT,
    SignalSpec,
    SimulationDiverged,
    Trajectory,
    _Jumps,
    _Prepared,
    integrate,
    least_squares_slope,
    member_seed,
    rk4_transition,
    run_ensemble,
    settling_time,
)

ZERO = SignalSpec.zero()
JUMP_RTOL = 1e-11  # the engine against the stepping oracle, of the largest output
DART = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
INTEGRATOR = RationalTF([1.0], [0.0, 1.0])


def scalar_loop(a: float) -> ClosedLoop:
    """Single-agent loop xdot = a x + d + n for integrator-style tests."""
    sys = StateSpace([[a]], [[1.0, 1.0]], [[1.0]], [[0.0, 0.0]])
    return ClosedLoop(dynamics=sys, x0_map=np.array([[1.0]]), nagents=1)


def consensus_loop(n_agents=5, k=2.65):
    agents = [AgentModel(INTEGRATOR) for _ in range(n_agents)]
    return build_classic(DART, agents, ClassicConfig(gains=k))


def twodof_loop():
    """The 30-state 2DOF loop of the reproduction scenarios."""
    fd = RationalTF([-16.0, -7.586], [0.4143, 1.0])
    agents = [AgentModel(INTEGRATOR, fd) for _ in range(5)]
    return build_2dof(DART, agents, TwoDofConfig(make_filter(FilterParams(3.0, 5.0, 2.0))))


def filtered_loop():
    """Uniform classic loop on the dart with a first-order shared filter."""
    F = RationalTF([2.0], [2.0, 1.0])
    return build_classic(DART, [AgentModel(INTEGRATOR)] * 5, ClassicConfig(gains=2.65, shared_filter=F))


def lag_loop():
    """The 2DOF loop of `twodof_loop` under the first-order lag network
    filter 2/(s + 1), which makes it unstable: its states grow about
    e-fold per second."""
    fd = RationalTF([-16.0, -7.586], [0.4143, 1.0])
    agents = [AgentModel(INTEGRATOR, fd) for _ in range(5)]
    return build_2dof(DART, agents, TwoDofConfig(RationalTF([2.0], [1.0, 1.0])))


def biproper_loop():
    """Uniform classic loop of 2-state plants that feed their inputs
    through, so that the outputs depend on the mode (c_k)."""
    plant = RationalTF([1.0, 4.0, 1.0], [2.0, 3.0, 1.0])
    return build_classic(DART, [AgentModel(plant)] * 5, ClassicConfig(gains=2.65))


def feedthrough_loop(noisy=False):
    """Random stable 7-state loop of 3 agents whose every input channel
    feeds through to the outputs; with noisy=True the measurement
    channels do not, so that they can carry white noise."""
    rng = np.random.default_rng(23)
    A = rng.normal(size=(7, 7))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(7)
    B, C, D = rng.normal(size=(7, 6)), rng.normal(size=(3, 7)), rng.normal(size=(3, 6))
    if noisy:
        D[:, 3:] = 0.0
    return ClosedLoop(StateSpace(A, B, C, D), x0_map=rng.normal(size=(7, 3)), nagents=3)


def channel_specs(loop, d, n):
    """The specs of the disturbance channels, then the measurement channels."""
    return [s for bank in (d, n) for s in ([bank] * loop.nagents if isinstance(bank, SignalSpec) else bank)]


def onset_node(spec, dt):
    """The node nearest the onset of `spec`; past the last node for an
    onset that never acts, since no node is at or after it."""
    return int(round(spec.onset / dt))


def step_table(loop, d, n, dt, T):
    """Step inputs at every node, disturbance channels then measurement
    channels, built from the specs: a step channel holds its amplitude
    from its onset node on, and row k is also the input over the
    interval that starts at node k."""
    u = np.zeros((int(round(T / dt)) + 1, 2 * loop.nagents))
    for c, s in enumerate(channel_specs(loop, d, n)):
        if s.kind == "step":
            u[onset_node(s, dt):, c] = s.amplitude
    return u


def reference_member(loop, d, n, y0, dt, T, seed, realization, states=False):
    """Outputs (with states=True, the states) of one member stepped alone
    over the whole horizon, as the engine did before it stepped members
    together: x <- phi x + gb u_k + bn w_k, one matrix-vector product and
    one divergence test per step, the inputs of every node formed by one
    product over the dense step table; the noise stays off when seed is
    None.  The noise, too, comes
    from the specs: a white-noise channel's draw of the step that leaves
    node k is sqrt(intensity dt) times a standard normal from its onset
    node on, and 0 before."""
    p = _Prepared(loop, d, n, y0, dt, T)
    phi, gamma, _ = rk4_transition(loop.dynamics.A, dt)
    u = step_table(loop, d, n, dt, T)
    out = np.empty((p.nsteps + 1, phi.shape[0]))
    out[0] = p.x0
    np.matmul(u[:-1], (gamma @ loop.dynamics.B).T, out=out[1:])
    if seed is not None:
        specs = channel_specs(loop, d, n)
        white = [c for c, s in enumerate(specs) if s.is_stochastic]
        rng = np.random.Generator(np.random.Philox(member_seed(seed, realization)))
        w = rng.standard_normal((p.nsteps, len(white)))
        for i, c in enumerate(white):
            w[:, i] *= np.sqrt(specs[c].intensity * dt)
            w[:onset_node(specs[c], dt), i] = 0.0
        out[1:] += w @ loop.dynamics.B[:, white].T
    for k in range(1, out.shape[0]):
        x = out[k]
        x += phi @ out[k - 1]
        if not np.all(np.abs(x) < DIVERGENCE_LIMIT):
            raise SimulationDiverged(k * p.dt)
    return out if states else out @ p.C.T + u @ p.Dmat.T


def stepped(loop, d, n, y0, dt, T, seed, members):
    """Outputs (node, member, agent) of `members` of master seed `seed`
    run together by the engine."""
    p = _Prepared(loop, d, n, y0, dt, T)
    y = np.empty((p.nsteps + 1, len(members), loop.nagents))
    for s, block in _Jumps(p).run(seed, members):
        y[s:s + block.shape[1]] = block.transpose(1, 0, 2)
    return y


def integrated_reference(loop, d, y0, dt, T) -> float:
    """The final mean output of `integrate` with every measurement channel
    at zero: the reference consensus of an ensemble, bit for bit."""
    return float(np.mean(integrate(loop, d, ZERO, y0, dt, T).outputs[-1]))


def reference_ensemble(loop, d, n, y0, dt, T, seed, realizations, projection):
    """(mean, variance, finals, paths) of members stepped one at a time:
    the two-pass mean and variance over the members of each node."""
    paths = [reference_member(loop, d, n, y0, dt, T, seed, r) for r in range(realizations)]
    z = np.stack([(y * projection).sum(axis=1) for y in paths], axis=1)
    mean = z.mean(axis=1)
    variance = np.square(z - mean[:, None]).sum(axis=1) / max(realizations - 1, 1)
    return mean, variance, np.array([y[-1] for y in paths]), paths


class TestSignalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalSpec("ramp")
        with pytest.raises(ValueError):
            SignalSpec.step(1.0, onset=-1.0)
        with pytest.raises(ValueError):
            SignalSpec.white_noise(-1.0)

    @pytest.mark.parametrize("spec, message", [
        (lambda: SignalSpec.step(1.0, onset=np.nan), "onset must be nonnegative"),
        (lambda: SignalSpec.white_noise(0.1, onset=np.nan), "onset must be nonnegative"),
        (lambda: SignalSpec.step(np.nan), "must be finite"),
        (lambda: SignalSpec.step(np.inf), "must be finite"),
        (lambda: SignalSpec.step(-np.inf, onset=1.0), "must be finite"),
        (lambda: SignalSpec.white_noise(np.nan), "must be finite"),
        (lambda: SignalSpec.white_noise(np.inf), "must be finite"),
    ], ids=["nan-step-onset", "nan-noise-onset", "nan-amplitude", "inf-amplitude",
            "minus-inf-amplitude", "nan-intensity", "inf-intensity"])
    def test_non_finite_values_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            spec()

    def test_infinite_onset_never_acts(self):
        loop = scalar_loop(-1.0)
        late = integrate(loop, SignalSpec.step(1.0, onset=np.inf), ZERO, [1.0], 0.01, 1.0)
        assert np.array_equal(late.outputs, integrate(loop, ZERO, ZERO, [1.0], 0.01, 1.0).outputs)

    def test_kinds(self):
        assert SignalSpec.zero().kind == "zero"
        assert SignalSpec.step(2.0, 5.0).amplitude == 2.0
        assert SignalSpec.white_noise(0.3, 5.0).is_stochastic


class TestDeterministicIntegration:
    def test_scalar_decay_matches_exponential(self):
        loop = scalar_loop(-1.0)
        traj = integrate(loop, ZERO, ZERO, [1.0], 1e-3, 1.0)
        assert abs(traj.outputs[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_two_agent_consensus_average(self):
        g = Graph(2, [(1, 2)])
        loop = build_classic(g, [AgentModel(INTEGRATOR)] * 2, ClassicConfig(gains=1.0))
        traj = integrate(loop, ZERO, ZERO, [0.0, 2.0], 1e-3, 10.0)
        assert np.allclose(traj.outputs[-1], 1.0, atol=1e-7)

    def test_order_four_convergence(self):
        loop = scalar_loop(-1.0)
        errors = []
        steps = [1e-2, 5e-3, 2.5e-3]
        for dt in steps:
            traj = integrate(loop, ZERO, ZERO, [1.0], dt, 1.0)
            errors.append(abs(traj.outputs[-1, 0] - np.exp(-1.0)))
        slopes = np.diff(np.log(errors)) / np.diff(np.log(steps))
        assert np.all(np.abs(slopes - 4.0) <= 0.3)

    def test_step_onset_alignment_exact(self):
        # integrator with a step at t = 1: y(T) = amp * (T - 1) exactly
        loop = scalar_loop(0.0)
        traj = integrate(loop, SignalSpec.step(2.0, onset=1.0), ZERO, [0.0], 1e-3, 3.0)
        assert traj.outputs[-1, 0] == pytest.approx(4.0, abs=1e-9)
        k_onset = traj.index_at(1.0)
        assert traj.outputs[k_onset, 0] == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_rejected(self):
        loop = scalar_loop(-1.0)
        with pytest.raises(ValueError, match="deterministic"):
            integrate(loop, ZERO, SignalSpec.white_noise(1.0), [0.0], 1e-3, 1.0)

    def test_divergence_detection(self):
        loop = scalar_loop(5.0)
        with pytest.raises(SimulationDiverged) as err:
            integrate(loop, ZERO, ZERO, [1.0], 1e-3, 10.0)
        assert err.value.time == pytest.approx(np.log(1e9) / 5.0, rel=0.05)

    def test_divergence_survives_pickling(self):
        err = pickle.loads(pickle.dumps(SimulationDiverged(1.25)))
        assert type(err) is SimulationDiverged
        assert err.time == 1.25 and str(err) == "simulation diverged at t = 1.25 s"

    @pytest.mark.parametrize("dt, T, message", [
        (float("nan"), 1.0, "dt must be positive"),
        (1e-3, float("nan"), "horizon must be a number"),
    ])
    def test_nan_names_its_input(self, dt, T, message):
        with pytest.raises(ValueError, match=message):
            integrate(scalar_loop(-1.0), ZERO, ZERO, [1.0], dt, T)

    def test_zero_everything_stays_zero(self):
        loop = consensus_loop()
        traj = integrate(loop, ZERO, ZERO, np.zeros(5), 1e-3, 2.0)
        assert np.max(np.abs(traj.outputs)) == 0.0


class TestStochasticIntegration:
    def test_brownian_variance_slope(self):
        loop = scalar_loop(0.0)
        stats = run_ensemble(
            loop, ZERO, SignalSpec.white_noise(1.0), [0.0], 1e-2, 20.0,
            seed=1, realizations=500, projection=[1.0],
        )
        assert stats.variance[-1] == pytest.approx(20.0, rel=0.1)
        assert stats.drift_slope() == pytest.approx(1.0, rel=0.1)

    def test_bitwise_determinism(self):
        loop = consensus_loop()
        spec = [SignalSpec.white_noise(0.1, onset=1.0)] * 5
        a = stepped(loop, ZERO, spec, [1, 0, 0, 0, -1.0], 1e-3, 5.0, 42, [3])
        b = stepped(loop, ZERO, spec, [1, 0, 0, 0, -1.0], 1e-3, 5.0, 42, [3])
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        loop = scalar_loop(-1.0)
        spec = SignalSpec.white_noise(1.0)
        a, c = stepped(loop, ZERO, spec, [0.0], 1e-2, 2.0, 1, [0, 1]).transpose(1, 0, 2)
        b = stepped(loop, ZERO, spec, [0.0], 1e-2, 2.0, 2, [0])[:, 0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ou_stationary_variance(self):
        # xdot = -x + white noise of intensity sigma^2: Var -> sigma^2/2
        loop = scalar_loop(-1.0)
        sigma2 = 2.0
        stats = run_ensemble(
            loop, ZERO, SignalSpec.white_noise(sigma2), [0.0], 1e-2, 30.0,
            seed=10, realizations=500, projection=[1.0],
        )
        window = stats.variance[stats.times >= 20.0]
        assert np.mean(window) == pytest.approx(sigma2 / 2.0, rel=0.1)

    def test_onset_gating(self):
        loop = scalar_loop(0.0)
        y = stepped(loop, ZERO, SignalSpec.white_noise(1.0, onset=2.0), [0.0], 1e-2, 4.0, 3, [0])[:, 0]
        assert np.max(np.abs(y[:201])) == 0.0  # nodes t <= 2.0
        assert np.max(np.abs(y[-1])) > 0.0

    def test_ensemble_member_matches_streaming_stats(self):
        loop = scalar_loop(-0.5)
        spec = SignalSpec.white_noise(1.0)
        R = 40
        stats = run_ensemble(loop, ZERO, spec, [0.0], 1e-2, 5.0, seed=9, realizations=R, projection=[1.0])
        members = stepped(loop, ZERO, spec, [0.0], 1e-2, 5.0, 9, range(R))
        z = members[:, :, 0].T
        assert np.allclose(z.var(axis=0, ddof=1), stats.variance, atol=1e-12)
        assert np.allclose(z[:, -1], stats.finals[:, 0])
        assert np.array_equal(stats.paths[0].outputs, members[:, 0])

    def test_variance_stable_when_mean_dominates(self):
        # a mean of 1e8 against a spread of ~1e-3 cancels s2 - R mean^2
        loop = scalar_loop(0.0)
        spec = SignalSpec.white_noise(1e-6)
        R = 40
        stats = run_ensemble(loop, ZERO, spec, [1e8], 1e-2, 2.0, seed=0, realizations=R, projection=[1.0])
        z = stepped(loop, ZERO, spec, [1e8], 1e-2, 2.0, 0, range(R))[:, :, 0].T
        assert stats.variance[-1] == pytest.approx(z[:, -1].var(ddof=1), rel=1e-9)


class TestBatchedEngine:
    """Members run together against members run one at a time by the
    engine (the same bits) and against the stepping oracle (the same
    values to rounding), for every block and sub-block boundary case."""

    LOOPS = {1: scalar_loop(-0.5), 5: consensus_loop(), 30: twodof_loop()}
    DT = 1e-2

    def signals(self, nagents, onset_node, step_node=150):
        # steps and white noise mixed; noise channel 0 starts at onset_node,
        # the others inside the first block; with more than one agent the
        # last measurement channel is a step, which the twin turns off too
        d = [SignalSpec.step(0.7, onset=step_node * self.DT)] + [ZERO] * (nagents - 1)
        n = [SignalSpec.white_noise(0.3, onset=onset_node * self.DT)]
        n += [SignalSpec.white_noise(0.2, onset=37 * self.DT)] * (nagents - 2)
        n += [SignalSpec.step(-0.4, onset=90 * self.DT)] * (nagents > 1)
        return d, n

    @pytest.mark.parametrize("onset_node", [37, _CHUNK], ids=["onset-inside", "onset-boundary"])
    @pytest.mark.parametrize("realizations", [1, 2, 7, 33])
    @pytest.mark.parametrize("nsteps", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("nstates", [1, 5, 30])
    def test_ensemble_bit_identical_to_member_loop(self, nstates, nsteps, realizations, onset_node):
        loop = self.LOOPS[nstates]
        assert loop.dynamics.A.shape[0] == nstates
        nu = loop.nagents
        d, n = self.signals(nu, onset_node)
        y0 = np.linspace(1.0, -0.5, nu)
        projection = np.full(nu, 1.0 / nu)
        T = nsteps * self.DT
        stats = run_ensemble(
            loop, d, n, y0, self.DT, T, seed=5, realizations=realizations,
            projection=projection, keep=realizations,
        )
        paths = [stepped(loop, d, n, y0, self.DT, T, 5, [r])[:, 0] for r in range(realizations)]
        # the engine's statistics: a sum of products over the agents, then
        # the two-pass mean and variance over the members, per node
        z = np.stack([np.einsum("kj,j->k", y, projection) for y in paths], axis=1)
        mean = z.mean(axis=1)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.variance, np.square(z - mean[:, None]).sum(axis=1) / max(realizations - 1, 1))
        assert np.array_equal(stats.finals, [y[-1] for y in paths])
        assert len(stats.paths) == realizations
        for got, want in zip(stats.paths, paths):
            assert np.array_equal(got.outputs, want)
        assert stats.reference == integrated_reference(loop, d, y0, self.DT, T)
        self.assert_near_oracle(stats, loop, d, n, y0, T, realizations, projection)

    def assert_near_oracle(self, stats, loop, d, n, y0, T, realizations, projection):
        """Paths, finals and twin within JUMP_RTOL of the stepping oracle's
        largest output; the mean and variance within what that implies."""
        mean, variance, finals, paths = reference_ensemble(loop, d, n, y0, self.DT, T, 5, realizations, projection)
        tol = JUMP_RTOL * max(np.max(np.abs(y)) for y in paths)
        for got, want in zip(stats.paths, paths):
            assert np.max(np.abs(got.outputs - want)) <= tol
        assert np.max(np.abs(stats.finals - finals)) <= tol
        # a member's projection, and so the mean, moves by at most
        # ztol = |projection|_1 tol; a deviation from the mean by 2 ztol,
        # and the variance by R/(R-1) 4 ztol (largest deviation + ztol)
        ztol = np.abs(projection).sum() * tol
        assert np.max(np.abs(stats.mean - mean)) <= ztol
        z = np.stack([(y * projection).sum(axis=1) for y in paths])
        spread = np.max(np.abs(z - mean))
        vtol = realizations / max(realizations - 1, 1) * 4.0 * ztol * (spread + ztol)
        assert np.max(np.abs(stats.variance - variance)) <= vtol
        twin = reference_member(loop, d, [ZERO] * loop.nagents, y0, self.DT, T, None, 0)
        assert abs(stats.reference - float(np.mean(twin[-1]))) <= JUMP_RTOL * np.max(np.abs(twin))

    ORACLE_LOOPS = {
        "1": scalar_loop(-0.5), "5": consensus_loop(), "30": twodof_loop(), "feedthrough": feedthrough_loop(noisy=True),
    }
    ORACLE_NSTEPS = 3 * _CHUNK + 5

    @pytest.mark.parametrize("realizations", [1, 3, 30])
    @pytest.mark.parametrize("step_node", [0, 1, 7, 8, 9, 37, 38, _CHUNK - 1, _CHUNK, _CHUNK + 1, ORACLE_NSTEPS])
    @pytest.mark.parametrize("loop_name", list(ORACLE_LOOPS))
    def test_ensemble_matches_stepping_oracle(self, loop_name, step_node, realizations):
        # a disturbance step at step_node, noise onsets inside a sub-block
        # (node 37, 37 = 4 x 8 + 5) and, with more than one agent,
        # measurement channels that carry a step as well as noise; step
        # node 37 puts the step on the noise onsets' node, and 38 one node
        # after it, which leaves a one-node stretch inside nodes 32-39
        loop = self.ORACLE_LOOPS[loop_name]
        nu = loop.nagents
        d, n = self.signals(nu, 37, step_node)
        y0 = np.linspace(1.0, -0.5, nu)
        projection = np.linspace(1.0, -2.0, nu) / nu
        T = self.ORACLE_NSTEPS * self.DT
        stats = run_ensemble(
            loop, d, n, y0, self.DT, T, seed=5, realizations=realizations,
            projection=projection, keep=realizations,
        )
        self.assert_near_oracle(stats, loop, d, n, y0, T, realizations, projection)

    @pytest.mark.parametrize("keep", [0, 4])
    def test_keep_out_of_range_rejected(self, keep):
        with pytest.raises(ValueError, match="keep"):
            run_ensemble(
                self.LOOPS[1], ZERO, SignalSpec.white_noise(1.0), [0.0], self.DT, 1.0,
                seed=0, realizations=3, projection=[1.0], keep=keep,
            )

    def test_member_paths_do_not_depend_on_company(self):
        loop = self.LOOPS[5]
        d, n = self.signals(5, 37)
        T = (2 * _CHUNK + 3) * self.DT
        together = stepped(loop, d, n, np.ones(5), self.DT, T, 8, [4, 0, 2])
        for i, r in enumerate([4, 0, 2]):
            alone = stepped(loop, d, n, np.ones(5), self.DT, T, 8, [r])
            assert np.array_equal(together[:, i], alone[:, 0])

    def test_divergence_is_earliest_over_members(self):
        # unstable, zero initial state: only the noise drives the members away
        loop = scalar_loop(5.0)
        n = SignalSpec.white_noise(1.0)
        times = []
        for r in range(6):
            with pytest.raises(SimulationDiverged) as err:
                reference_member(loop, ZERO, n, [0.0], 1e-3, 10.0, 4, r)
            times.append(err.value.time)
        assert len(set(times)) > 1 and np.argmin(times) != 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDiverged) as err:
                run_ensemble(loop, ZERO, n, [0.0], 1e-3, 10.0, seed=4, realizations=6, projection=[1.0])
        assert err.value.time == min(times)

    def test_noise_divergence_inside_a_jumped_sub_block(self):
        # an integrator (Phi = 1, growth 1, |bn| 1) driven by noise alone:
        # member 2's draws take it past the limit at node 20, inside the
        # sub-block of nodes 16-23, which starts below the limit and which
        # the bounds of members 0 and 1 let them jump
        loop, dt, sigma, seed = scalar_loop(0.0), 1e-2, 1e8, 7
        n = SignalSpec.white_noise(sigma**2 / dt)
        times, paths = [], []
        for r in range(3):
            try:
                reference_member(loop, ZERO, n, [0.0], dt, 2.0, seed, r)
                times.append(np.inf)
            except SimulationDiverged as err:
                times.append(err.time)
            paths.append(reference_member(loop, ZERO, n, [0.0], dt, 16 * dt, seed, r)[:, 0])
        assert np.argmin(times) == 2 and round(times[2] / dt) == 20 and min(times[:2]) > times[2]
        assert abs(paths[2][16]) < DIVERGENCE_LIMIT
        for r in range(2):
            draws = np.random.Generator(np.random.Philox(member_seed(seed, r))).standard_normal(24)
            assert abs(paths[r][16]) + np.abs(draws[16:24]).sum() * sigma < DIVERGENCE_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDiverged) as err:
                run_ensemble(loop, ZERO, n, [0.0], dt, 2.0, seed=seed, realizations=3, projection=[1.0])
        assert err.value.time == times[2]


class TestJumpPath:
    """integrate runs a uniform network's loop mode by mode and any other
    loop by jumps of _JUMP nodes; the stepping oracle agrees to rounding
    for every sub-block and block boundary case.  The hand-built loops
    take the jump path, the built ones the modal path."""

    LOOPS = {
        "1": scalar_loop(-0.5), "feedthrough": feedthrough_loop(),
        "5": consensus_loop(), "30": twodof_loop(), "filtered": filtered_loop(), "2-state-plant": biproper_loop(),
    }
    DT = 1e-2
    ONSETS = {  # node of the step on disturbance channel 0, from nsteps
        "node-0": lambda nsteps: 0,
        "inside": lambda nsteps: nsteps // 2 | 1,
        "boundary": lambda nsteps: _JUMP * max(1, nsteps // (2 * _JUMP)),
        "after-measurement": lambda nsteps: _JUMP + 2,  # one node after the measurement steps
        "last-node": lambda nsteps: nsteps,
        "past-horizon": lambda nsteps: nsteps + 40,
    }

    @pytest.mark.parametrize("onset", list(ONSETS))
    @pytest.mark.parametrize("nsteps", [_JUMP - 1, _JUMP, _JUMP + 1, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("loop_name", list(LOOPS))
    def test_matches_stepping_oracle(self, loop_name, nsteps, onset):
        loop = self.LOOPS[loop_name]
        nu, dt = loop.nagents, self.DT
        d = [SignalSpec.step(0.7, onset=self.ONSETS[onset](nsteps) * dt)] + [ZERO] * (nu - 1)
        n = [SignalSpec.step(-0.4, onset=(_JUMP + 1) * dt)] * nu
        y0 = np.linspace(1.0, -0.5, nu)
        T = nsteps * dt
        got = integrate(loop, d, n, y0, dt, T).outputs
        want = reference_member(loop, d, n, y0, dt, T, None, 0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= JUMP_RTOL * np.max(np.abs(want))

    def test_dist_agreement_mode_exact(self):
        # the classic dist loop's agreement mode integrates the mean
        # disturbance exactly: mean(y0) + 1 (60 - 5) / 5 at T = 60 s
        cfg = load_scenario("dist")["classic"]
        traj = integrate(cfg.build_loop(), cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon)
        want = np.mean(cfg.y0) + 1.0 * (60.0 - 5.0) / 5
        assert abs(np.mean(traj.outputs[-1]) - want) <= 3e-13 * abs(want)

    def test_loop_structure_selects_the_path(self, monkeypatch):
        def no_jumps(*args):
            raise AssertionError("jump engine used")

        monkeypatch.setattr(_Jumps, "__init__", no_jumps)
        for name, loop in self.LOOPS.items():
            assert (loop.modal is None) == (name in ("1", "feedthrough"))
            if loop.modal is not None:
                integrate(loop, ZERO, ZERO, np.ones(loop.nagents), self.DT, 1.0)
        with pytest.raises(AssertionError, match="jump engine"):
            integrate(self.LOOPS["1"], ZERO, ZERO, [1.0], self.DT, 1.0)

    @pytest.mark.parametrize("y0", [1.0, np.nan])
    def test_unstable_uniform_network_diverges_at_stepping_time(self, y0):
        # 1/(s - 0.5) agents: the agreement mode grows as e^(t/2); a block
        # whose states cannot be bounded reruns the run on the jump path
        loop = build_classic(DART, [AgentModel(RationalTF([1.0], [-0.5, 1.0]))] * 5, ClassicConfig(gains=1.0))
        assert loop.modal is not None
        y0 = np.array([y0, 0.5, -0.25, 0.0, 1.5])
        d = SignalSpec.step(0.3, onset=2.0)
        with pytest.raises(SimulationDiverged) as want:
            reference_member(loop, d, ZERO, y0, self.DT, 60.0, None, 0)
        with pytest.raises(SimulationDiverged) as got:
            integrate(loop, d, ZERO, y0, self.DT, 60.0)
        assert got.value.time == want.value.time

    @pytest.mark.parametrize("loop_name, T", [("5", 2.55), ("2-state-plant", 2.55), ("lag", 2.55), ("lag", 20.0)])
    def test_modal_bound_is_sound(self, monkeypatch, loop_name, T):
        # from rest under seeded steps, the limit just below the largest
        # state the oracle reaches: a block bound below its block's states
        # would let the modal path return.  A single block (T = 2.55) needs
        # the forced-response term, the unstable lag loop the growth G
        loop = lag_loop() if loop_name == "lag" else self.LOOPS[loop_name]
        nu, dt = loop.nagents, self.DT
        d = [SignalSpec.step(a) for a in np.random.default_rng(7).normal(size=nu)]
        y0 = np.zeros(nu)
        peaks = np.abs(reference_member(loop, d, ZERO, y0, dt, T, None, 0, states=True)[1:]).max(axis=1)
        top = peaks.max()
        assert np.count_nonzero(peaks >= top * (1 - 1e-6)) == 1  # no rounding tie at the crossing
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", top * (1 - 1e-9))
        with pytest.raises(SimulationDiverged) as err:
            integrate(loop, d, ZERO, y0, dt, T)
        assert err.value.time == (np.argmax(peaks) + 1) * dt

    @pytest.mark.parametrize("x0", [0.3, 1e8, 2e9, np.nan])
    def test_divergence_time_matches_stepping(self, x0):
        # the sub-blocks that cannot be bounded below the limit are stepped
        loop = scalar_loop(5.0)
        d = SignalSpec.step(1e3, onset=0.0131)
        with pytest.raises(SimulationDiverged) as want:
            reference_member(loop, d, ZERO, [x0], 1e-3, 10.0, None, 0)
        with pytest.raises(SimulationDiverged) as got:
            integrate(loop, d, ZERO, [x0], 1e-3, 10.0)
        assert got.value.time == want.value.time


class TestBlockInputs:
    """Step inputs on both banks: onsets at the horizon's edges and on
    block boundaries, and the twin that turns the measurement steps off."""

    DT = 1e-2
    NSTEPS = 3 * _CHUNK + 5

    def signals(self, onset_node):
        # channel 0 of each bank steps at onset_node; the others at node
        # 0, on a block boundary and past the horizon (never acts)
        dt = self.DT
        d = [SignalSpec.step(0.7, onset_node * dt), SignalSpec.step(-1.2, 0.0), ZERO]
        n = [SignalSpec.step(-0.4, onset_node * dt), SignalSpec.step(0.25, _CHUNK * dt),
             SignalSpec.step(2.0, (self.NSTEPS + 40) * dt)]
        return d, n

    @pytest.mark.parametrize("onset_node", [0, _CHUNK + 1, NSTEPS])
    def test_twin_turns_measurement_steps_off(self, onset_node):
        loop = feedthrough_loop()
        d, n = self.signals(onset_node)
        y0, T = np.array([1.0, -0.5, 0.25]), self.NSTEPS * self.DT
        stats = run_ensemble(loop, d, n, y0, self.DT, T, seed=0, realizations=1, projection=np.ones(3))
        member = stats.paths[0].outputs
        want = reference_member(loop, d, n, y0, self.DT, T, None, 0)
        assert np.max(np.abs(member - want)) <= JUMP_RTOL * np.max(np.abs(want))
        twin = reference_member(loop, d, [ZERO] * 3, y0, self.DT, T, None, 0)
        assert stats.reference == integrated_reference(loop, d, y0, self.DT, T)
        assert abs(stats.reference - float(np.mean(twin[-1]))) <= JUMP_RTOL * np.max(np.abs(twin))
        assert stats.reference != float(np.mean(member[-1]))


class TestMemory:
    """A run holds its outputs and O(_CHUNK x paths x states + _JUMP x
    states^2) more on the jump path, O(_CHUNK x states) on the modal
    path, however long the horizon: the 30-state 2DOF loop over 60,000
    steps and a 360-state one."""

    SLACK = 2 * 2**20  # bytes

    def traced_peak(self, run, T=60.0):
        run(0.1)  # first-call imports are not the run's memory
        tracemalloc.start()
        try:
            result = run(T)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def ring_loop():
        """A 60-agent 2DOF loop of 360 states."""
        ring = [(i, i % 60 + 1) for i in range(1, 61)] + [(i, i + 7) for i in range(1, 54, 4)]
        fd = RationalTF([-16.0, -7.586], [0.4143, 1.0])
        loop = build_2dof(Graph(60, ring), [AgentModel(INTEGRATOR, fd)] * 60,
                          TwoDofConfig(make_filter(FilterParams(3.0, 5.0, 2.0))))
        assert loop.dynamics.A.shape[0] == 360
        return loop

    def signals(self):
        d = [SignalSpec.step(0.5, onset=10.0)] + [ZERO] * 4
        return d, [SignalSpec.white_noise(0.01, onset=1.0)] * 5

    def test_integrate_peak(self):
        loop = twodof_loop()
        d, _ = self.signals()
        traj, peak = self.traced_peak(lambda T: integrate(loop, d, ZERO, np.linspace(1, -1, 5), 1e-3, T))
        assert traj.outputs.shape == (60_001, 5)
        assert peak < traj.outputs.nbytes + traj.times.nbytes + self.SLACK

    def test_integrate_peak_360_states(self):
        # the modal tables hold O(_CHUNK x states) per input level
        loop = self.ring_loop()
        d = [SignalSpec.step(0.5, onset=10.0)] + [ZERO] * 59
        traj, peak = self.traced_peak(lambda T: integrate(loop, d, ZERO, np.linspace(1, -1, 60), 1e-3, T))
        assert traj.outputs.shape == (60_001, 60)
        assert peak < traj.outputs.nbytes + traj.times.nbytes + 5 * 2**20

    def test_run_ensemble_peak(self):
        loop = twodof_loop()
        d, n = self.signals()
        stats, peak = self.traced_peak(lambda T: run_ensemble(
            loop, d, n, np.linspace(1, -1, 5), 1e-3, T, seed=3, realizations=3,
            projection=np.full(5, 0.2), keep=1,
        ))
        kept = stats.times.nbytes + stats.mean.nbytes + stats.variance.nbytes + stats.paths[0].outputs.nbytes
        assert peak < kept + self.SLACK


    def test_run_ensemble_peak_360_states(self):
        # 31 members: one block of the batch holds _CHUNK x 31 x 360
        # numbers, the tables O(_JUMP x 360^2); the twin's modal run ends first
        loop = self.ring_loop()
        d = [SignalSpec.step(0.5, onset=10.0)] + [ZERO] * 59
        n = [SignalSpec.white_noise(0.01, onset=1.0)] * 60
        stats, peak = self.traced_peak(lambda T: run_ensemble(
            loop, d, n, np.linspace(1, -1, 60), 1e-3, T, seed=3, realizations=31,
            projection=np.full(60, 1 / 60), keep=1,
        ), T=2.0)
        kept = stats.times.nbytes + stats.mean.nbytes + stats.variance.nbytes + stats.paths[0].outputs.nbytes
        assert peak < kept + 8 * (_CHUNK * 31 * 360 + _JUMP * 360**2) + self.SLACK


class TestMetrics:
    def test_settling_constant_trajectory(self):
        t = np.arange(11) * 0.1
        traj = Trajectory(times=t, outputs=np.ones((11, 3)))
        assert settling_time(traj) == 0.0

    def test_settling_exponential(self):
        # horizon long enough that the terminal residue is negligible
        loop = scalar_loop(-1.0)
        traj = integrate(loop, ZERO, ZERO, [1.0], 1e-3, 16.0)
        assert settling_time(traj) == pytest.approx(np.log(50.0), abs=1e-3)

    def test_settling_unsettled_raises(self):
        t = np.arange(11) * 0.1
        y = np.linspace(0, 1, 11)[:, None] * np.array([[1.0, -1.0]])
        traj = Trajectory(times=t, outputs=y)
        with pytest.raises(RuntimeError, match="unsettled"):
            settling_time(traj)

    def test_index_at_off_grid(self):
        t = np.arange(3) * 1.0
        traj = Trajectory(times=t, outputs=np.zeros((3, 2)))
        assert traj.index_at(2.0) == 2
        with pytest.raises(ValueError, match="grid"):
            traj.index_at(0.5)
        with pytest.raises(ValueError, match="grid"):
            traj.index_at(3.0)

    def test_drift_slope_requires_30(self):
        loop = scalar_loop(0.0)
        stats = run_ensemble(
            loop, ZERO, SignalSpec.white_noise(1.0), [0.0], 1e-2, 1.0,
            seed=0, realizations=29, projection=[1.0],
        )
        assert stats.drift_slope() is None

    def test_least_squares_slope_of_a_long_line(self):
        t = np.arange(30_001) * 1e-3
        assert least_squares_slope(t, 0.37 * t - 2.0) == pytest.approx(0.37, rel=1e-13)

    def test_drift_slope_list_matches_stats(self):
        # the slope of the members' two-pass variance over [T/2, T]
        loop = scalar_loop(0.0)
        spec = SignalSpec.white_noise(1.0)
        R = 60
        stats = run_ensemble(loop, ZERO, spec, [0.0], 1e-2, 10.0, seed=2, realizations=R, projection=[1.0])
        variance = stepped(loop, ZERO, spec, [0.0], 1e-2, 10.0, 2, range(R))[:, :, 0].var(axis=1, ddof=1)
        late = stats.times >= 5.0 - 1e-12
        slope = np.polyfit(stats.times[late], variance[late], 1)[0]
        assert slope == pytest.approx(stats.drift_slope(), rel=1e-9)


class TestAgreementLimit:
    def test_noise_free_agreement_gap(self):
        loop = consensus_loop()
        rng = np.random.default_rng(55)
        y0 = rng.uniform(-2, 2, 5)
        traj = integrate(loop, ZERO, ZERO, y0, 1e-3, 40.0)
        gap = np.max(traj.outputs[-1]) - np.min(traj.outputs[-1])
        assert gap <= 1e-4 * np.linalg.norm(y0)


class TestTrajectoryCsv:
    def test_roundtrip_full_precision(self, tmp_path):
        loop = consensus_loop()
        traj = integrate(loop, ZERO, ZERO, [1.5, 0.75, 0.0, -0.75, -1.5], 1e-2, 1.0)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,y1,y2,y3,y4,y5"
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.outputs, traj.outputs)
        assert np.array_equal(back.times, traj.times)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y1\n0,1\n1,2\n")
        with pytest.raises(ValueError, match="'t' column"):
            Trajectory.read_csv(path)

    SPECIAL = np.array([
        [-0.0, 5e-324, 1e300],
        [0.1 + 0.2, 1.0 / 3.0, -2.0 ** -1074],
        [np.nextafter(1.0, 2.0), -1e-300, 123456789.12345679],
    ])

    def assert_written_as_csv_writer(self, tmp_path, outputs):
        """write_csv gives the bytes of csv.writer with %.17g values, and
        reads back bit for bit."""
        traj = Trajectory(times=np.arange(outputs.shape[0]) * 0.1, outputs=outputs)
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"y{i + 1}" for i in range(outputs.shape[1])])
            for t, row in zip(traj.times, outputs):
                writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == ref.read_bytes()
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.outputs, outputs)
        assert np.array_equal(np.signbit(back.outputs), np.signbit(outputs))
        assert np.array_equal(back.times, traj.times)

    def test_bytes_match_csv_writer(self, tmp_path):
        self.assert_written_as_csv_writer(tmp_path, self.SPECIAL)

    @pytest.mark.parametrize("rows", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1])
    def test_bytes_match_csv_writer_across_write_blocks(self, tmp_path, rows):
        self.assert_written_as_csv_writer(tmp_path, np.resize(self.SPECIAL, (rows, 3)))

    def test_read_accepts_lf_and_trailing_blank_line(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_bytes(b"t,y1,y2\n0,1,-2\n0.5,3,4.25\n\n")
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.times, [0.0, 0.5])
        assert np.array_equal(back.outputs, [[1.0, -2.0], [3.0, 4.25]])
        assert back.dt == 0.5

    @pytest.fixture
    def shares(self, monkeypatch):
        """Three usable CPUs whatever the host's; counts the forks and
        records each child's wait status."""
        record = {"forks": 0, "statuses": []}
        fork, waitpid = os.fork, os.waitpid

        def counted_fork():
            record["forks"] += 1
            return fork()

        def recorded_waitpid(pid, options):
            done = waitpid(pid, options)
            record["statuses"].append(done[1])
            return done

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        return record

    def special_rows(self, rows):
        outputs = np.resize(self.SPECIAL, (rows, 3))
        return Trajectory(times=np.arange(rows) * 0.1, outputs=outputs)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_shares_match_csv_writer(self, tmp_path, shares, k, offset):
        rows = k * _CSV_ROWS + offset
        self.assert_written_as_csv_writer(tmp_path, np.resize(self.SPECIAL, (rows, 3)))
        children = min(3, -(-rows // _CSV_ROWS)) - 1  # per write and per read
        assert shares["forks"] == 2 * children
        assert shares["statuses"] == [0] * (2 * children)

    def test_shares_read_lf_and_trailing_blank_line(self, tmp_path, shares):
        traj = self.special_rows(3 * _CSV_ROWS)
        path = tmp_path / "lf.csv"
        traj.write_csv(path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n") + b"\n")
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.outputs, traj.outputs)
        assert np.array_equal(np.signbit(back.outputs), np.signbit(traj.outputs))
        assert np.array_equal(back.times, traj.times)
        assert shares["forks"] == 4 and shares["statuses"] == [0] * 4

    def spoil_last_row(self, path):
        text = path.read_bytes()
        path.write_bytes(text[:text.rindex(b"\r\n", 0, -2) + 2] + b"0.5,x,1,2\r\n")

    def test_bad_value_in_last_share_raises_serial_message(self, tmp_path, shares):
        path = tmp_path / "bad.csv"
        self.special_rows(3 * _CSV_ROWS).write_csv(path)
        self.spoil_last_row(path)
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        # the last data row is the file's line 3 _CSV_ROWS + 1
        assert str(err.value) == f"{path}, line {3 * _CSV_ROWS + 1}: not a row of numbers as wide as the first"
        assert shares["forks"] == 4 and shares["statuses"] == [0, 0, 0, 256]  # the last child exits 1

    def test_column_change_between_shares_raises_serial_message(self, tmp_path, shares, monkeypatch):
        """Lines of one width, so the cut, at the first line end past the
        middle of the body, leaves every row of the second share a column
        short: each share parses alone, and only the whole body fails."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        n = 2 * _CSV_ROWS + 2
        rows = [b"0,1,2,3\r\n"] * (n // 2 + 1) + [b"0,1,234\r\n"] * (n // 2 - 1)
        path = tmp_path / "columns.csv"
        path.write_bytes(b"t,y1,y2,y3\r\n" + b"".join(rows))
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        # data row n // 2 + 2, line n // 2 + 3 of the file, is the first short one
        assert str(err.value) == f"{path}, line {n // 2 + 3}: not a row of numbers as wide as the first"
        assert shares["forks"] == 1 and shares["statuses"] == [0]

    def test_failed_child_is_redone_in_process(self, tmp_path, shares, monkeypatch):
        traj = self.special_rows(3 * _CSV_ROWS + 1)
        ref = tmp_path / "ref.csv"
        traj.write_csv(ref)
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: fork() or os._exit(1))
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == ref.read_bytes()
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.outputs, traj.outputs)
        assert np.array_equal(np.signbit(back.outputs), np.signbit(traj.outputs))

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["one-cpu", "fork-fails"])
    def test_no_fork_gives_the_same_bytes(self, tmp_path, shares, monkeypatch, cpus):
        """With one usable CPU nothing forks; where the fork fails the job
        is redone in-process."""
        traj = self.special_rows(3 * _CSV_ROWS + 1)
        ref = tmp_path / "ref.csv"
        traj.write_csv(ref)

        def no_fork():
            if len(cpus) == 1:
                raise AssertionError("forked on one CPU")
            raise OSError("no fork")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == ref.read_bytes()
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.outputs, traj.outputs)

    def test_no_child_is_left(self, tmp_path, shares):
        traj = self.special_rows(3 * _CSV_ROWS + 1)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        Trajectory.read_csv(path)
        with pytest.raises(FileNotFoundError):
            traj.write_csv(tmp_path / "missing" / "traj.csv")
        self.spoil_last_row(path)
        with pytest.raises(ValueError, match=f"line {3 * _CSV_ROWS + 2}: not a row of numbers"):
            Trajectory.read_csv(path)
        assert shares["forks"] == 6
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("body", ["t,y1\r\n", "t,y1\r\n0,1\r\n", "t,y1,y2\r\n", "t,y1,y2\r\n\r\n# no rows\r\n"],
                             ids=["header-only", "one-row", "wide-header-only", "blank-and-comment"])
    def test_too_few_rows_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "short.csv"
        path.write_bytes(body.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least two grid points"):
                Trajectory.read_csv(path)

    @pytest.mark.parametrize("body, values, fields", [
        ("t,y1,y2,y3\r\n0,1\r\n1,2\r\n", 2, 4),
        ("t,y1\r\n0,1,2,3\r\n1,2,3,4\r\n", 4, 2),
    ], ids=["rows-narrower", "rows-wider"])
    def test_header_width_must_match_the_rows(self, tmp_path, body, values, fields):
        path = tmp_path / "header.csv"
        path.write_bytes(body.encode())
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        assert str(err.value) == f"{path}: rows of {values} values under a header of {fields} fields"

    def test_header_width_checked_in_every_share(self, tmp_path, shares):
        path = tmp_path / "header.csv"
        path.write_bytes(b"t,y1,y2,y3\r\n" + b"0,1,2\r\n" * (3 * _CSV_ROWS))
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        assert str(err.value) == f"{path}: rows of 3 values under a header of 4 fields"
        assert shares["forks"] == 2

    @pytest.mark.parametrize("bad, line", [(b"0.5,x\n", 7), (b"0.5,1,2\n", 7), (b"0.5\n", 7)],
                             ids=["value", "wider", "narrower"])
    def test_line_count_includes_blank_and_comment_lines(self, tmp_path, bad, line):
        path = tmp_path / "commented.csv"
        path.write_bytes(b"t,y1\n\n# a comment\n0,1\n\n# another\n" + bad + b"1,2\n")
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        assert str(err.value) == f"{path}, line {line}: not a row of numbers as wide as the first"

    def test_width_change_at_a_block_boundary(self, tmp_path, monkeypatch):
        """The second block of the one share parses alone, a column short
        of the first: its first row is the bad line."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        path = tmp_path / "columns.csv"
        path.write_bytes(b"t,y1,y2,y3\r\n" + b"0,1,2,3\r\n" * _CSV_ROWS + b"0,1,2\r\n" * 10)
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        assert str(err.value) == f"{path}, line {_CSV_ROWS + 2}: not a row of numbers as wide as the first"

    def test_bad_value_in_first_share(self, tmp_path, shares):
        path = tmp_path / "bad.csv"
        self.special_rows(3 * _CSV_ROWS).write_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        lines[100] = b"9.9,1,x,3"  # data row 100
        path.write_bytes(b"\r\n".join(lines))
        forks = shares["forks"]
        with pytest.raises(ValueError) as err:
            Trajectory.read_csv(path)
        assert str(err.value) == f"{path}, line 101: not a row of numbers as wide as the first"
        # the pipes close before the children finish, so their statuses are not fixed
        assert shares["forks"] - forks == 2 and len(shares["statuses"]) == 4

    def test_bad_last_row_parses_at_most_one_block_line_by_line(self, tmp_path, shares, monkeypatch):
        path = tmp_path / "bad.csv"
        self.special_rows(3 * _CSV_ROWS).write_csv(path)
        self.spoil_last_row(path)
        loadtxt, calls = np.loadtxt, []

        def counted_loadtxt(lines, *args, **kwargs):
            lines = list(lines)
            calls.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        with pytest.raises(ValueError, match=f"line {3 * _CSV_ROWS + 1}: not a row of numbers"):
            Trajectory.read_csv(path)
        # the line-by-line scan: the one-line parses after the last block of the redo
        scan = len(calls) - 1 - max(k for k, n in enumerate(calls) if n > 1)
        assert 0 < scan <= _CSV_ROWS and max(calls) <= _CSV_ROWS


class TestKernelBackends:
    def test_rk4_transition_matches_expm_series(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 4)) * 0.5
        dt = 1e-3
        phi, gamma, delta = rk4_transition(A, dt)
        from scipy.linalg import expm

        assert np.allclose(phi, expm(A * dt), atol=1e-14)
        assert np.max(np.abs(delta - (phi - np.eye(4)))) <= 2 * np.finfo(float).eps
        # at dt |A| = 1e-9 Phi - I keeps ~8 digits, Delta all of them:
        # against hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 in exact arithmetic
        dt = 1e-9 / np.abs(A).sum(axis=1).max()
        delta = rk4_transition(A, dt)[2]
        hA = [[Fraction(dt) * Fraction(a) for a in row] for row in A.tolist()]
        term = exact = hA
        for k in (2, 3, 4):
            term = [[sum(term[i][m] * hA[m][j] for m in range(4)) / k for j in range(4)] for i in range(4)]
            exact = [[e + t for e, t in zip(er, tr)] for er, tr in zip(exact, term)]
        exact = np.array(exact, dtype=float)
        assert np.max(np.abs(delta - exact)) <= 1e-15 * np.max(np.abs(exact))

    @pytest.mark.parametrize("members", [1, 3, 31])
    def test_affine_path_is_the_increment_loop(self, members):
        # bit for bit x_{k+1} = t with t = D x_k; t += g_k; t += x_k, per member
        rng = np.random.default_rng(members)
        delta = rng.normal(size=(6, 6)) * 0.1
        out = rng.normal(size=(18, members, 6))
        want = out.copy()
        for k in range(17):
            for i in range(members):
                t = delta @ want[k, i]
                t += want[k + 1, i]
                t += want[k, i]
                want[k + 1, i] = t
        assert _kernels.affine_path(delta, out) is None
        assert out.tobytes() == want.tobytes()

    def test_path_matches_reference_recurrence(self):
        # random stable 8-state loop with a step disturbance and gated
        # white noise, against x_{k+1} = phi x_k + g_k + bn w_k stepped here
        rng = np.random.default_rng(11)
        nstates, nagents, dt, T, seed, member = 8, 2, 1e-2, 3.0, 5, 3
        A = rng.normal(size=(nstates, nstates))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(nstates)
        B = rng.normal(size=(nstates, 2 * nagents))
        C = rng.normal(size=(nagents, nstates))
        D = np.hstack([rng.normal(size=(nagents, nagents)), np.zeros((nagents, nagents))])
        x0_map = rng.normal(size=(nstates, nagents))
        loop = ClosedLoop(StateSpace(A, B, C, D), x0_map=x0_map, nagents=nagents)
        d = [SignalSpec.step(0.7, onset=0.5), SignalSpec.step(-1.2, onset=1.0)]
        n = [SignalSpec.white_noise(0.3, onset=0.2), SignalSpec.white_noise(0.05)]
        y0 = np.array([1.0, -0.5])
        got = stepped(loop, d, n, y0, dt, T, seed, [member])[:, 0]

        nsteps = int(round(T / dt))
        phi, gamma, _ = rk4_transition(A, dt)
        u = np.zeros((nsteps + 1, nagents))
        u[50:, 0], u[100:, 1] = 0.7, -1.2
        draws = np.random.Generator(np.random.Philox(member_seed(seed, member)))
        w = draws.standard_normal((nsteps, nagents)) * np.sqrt(np.array([0.3, 0.05]) * dt)
        w[:20, 0] = 0.0
        x = x0_map @ y0
        ref = [C @ x + D[:, :nagents] @ u[0]]
        for k in range(nsteps):
            x = phi @ x + gamma @ B[:, :nagents] @ u[k] + B[:, nagents:] @ w[k]
            ref.append(C @ x + D[:, :nagents] @ u[k + 1])
        ref = np.array(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_divergence_index_closed_form(self):
        # x_k = phi^k x0 for the scalar loop; the first k with |x_k| >= 1e9
        a, dt, x0 = 5.0, 1e-3, 0.3
        phi = rk4_transition(np.array([[a]]), dt)[0][0, 0]
        steps = np.log(1e9 / x0) / np.log(phi)
        assert 1e-6 < steps % 1.0 < 1.0 - 1e-6  # away from a rounding tie
        with pytest.raises(SimulationDiverged) as err:
            integrate(scalar_loop(a), ZERO, ZERO, [x0], dt, 10.0)
        assert err.value.time == np.ceil(steps) * dt
