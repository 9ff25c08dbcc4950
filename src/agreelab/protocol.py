"""Closed-loop builders, the agreement certificate and the
cancellation-condition checker.

Two protocols are supported for networks of SISO LTI agents
y_i = P_i (u_i + d_i) + (initial-condition response):

* classic diffusive consensus
    u_i = k_i F sum_{j in N_i} (y_j - y_i + n_ij)
  with the per-agent aggregated noise n_i = (1/|N_i|) sum_j n_ij, and

* the two-degrees-of-freedom protocol
    u_i = Fd_i y_i + (P_i^{-1} - Fd_i) Fa (ConM_i + n_i)
  where ConM_i is the neighbor average and Fa the shared network
  filter.

Loops are assembled at the agent level.  The modal closed form is
U^{-1} diag(T_i) U with the modes T_i = 1/(1 - alpha_i Fa)
(:func:`mode_transfer`); :func:`modal_analysis` returns the spectrum
alpha_i and the agents' local loops S_i and Td_i, which
:func:`check_agreement` and :func:`check_cancellation` test.  The loop
of a uniform network carries the same split of its states as a
:class:`ModalFactor`, one agent-space similarity for all of them: U^{-1}
for 2DOF, the Laplacian's eigenvectors V for classic (per-mode
decoupling, Fax and Murray, IEEE TAC 2004).  The simulator integrates
it mode by mode.

The classic loop's steady-state disagreement variance has a closed form
over the Laplacian spectrum (Bamieh, Jovanovic, Mitra and Patterson,
"Coherence in large-scale networks", IEEE TAC 2012); see
:func:`classic_noise_disagreement_variance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import (
    Graph,
    degrees,
    is_connected,
    laplacian,
    modal_transform,
    normalized_adjacency,
)
from .lti import (
    RationalTF,
    StateSpace,
    HURWITZ_MARGIN,
    ss_block_diag,
    tf_feedback,
    tf_inverse,
    tf_poles,
    tf_to_ss,
    tf_zeros,
)
from .numerics import poly_roots

__all__ = [
    "AgentModel",
    "ClassicConfig",
    "TwoDofConfig",
    "ClosedLoop",
    "ModalFactor",
    "ModalAnalysis",
    "AgreementCertificate",
    "CancellationVerdict",
    "build_classic",
    "build_2dof",
    "modal_analysis",
    "check_agreement",
    "check_cancellation",
    "mode_transfer",
    "classic_noise_disagreement_variance",
]

IMAG_AXIS_TOL = 1e-6
_REPEATED_POLE_TOL = 1e-6


@dataclass(frozen=True)
class AgentModel:
    """Plant P_i plus, for the 2DOF protocol, its local controller Fd_i."""

    plant: RationalTF
    local_controller: RationalTF | None = None


@dataclass(frozen=True)
class ClassicConfig:
    """Gains k_i (scalar broadcasts) and the shared filter F."""

    gains: float | Sequence[float]
    shared_filter: RationalTF = field(default_factory=lambda: RationalTF.constant(1.0))


@dataclass(frozen=True)
class TwoDofConfig:
    """The uniform network filter Fa; Fd_i live on the agents."""

    network_filter: RationalTF


@dataclass(frozen=True)
class ModalFactor:
    """Exact modal split of a uniform network's loop.

    Every agent carries b states, the plant's and then each controller
    bank's; ``order`` lists the loop's states agent after agent.  Under
    x[order] = (M kron I_b) z, z mode after mode, the state matrix
    becomes block diagonal: mode k couples only its b states z[k].  The
    outputs mix as the states: C x = M w with w_k = c_k z_k, a row c_k of
    b entries per mode.
    """

    transform: np.ndarray  # M, agent space
    inverse: np.ndarray  # M^{-1}
    order: np.ndarray  # the loop's states, agent-major

    def to_modes(self, X: np.ndarray) -> np.ndarray:
        """T^{-1} X of the n x m array X as (nagents, b, m): row (k, s) is
        state s of mode k, the agents' states in `order`."""
        nu = self.inverse.shape[0]
        return (self.inverse @ X[self.order].reshape(nu, -1)).reshape(nu, -1, X.shape[1])

    def mode_blocks(self, Z: np.ndarray) -> np.ndarray:
        """The mode-k blocks of Z T, of the rows Z[k] of mode k of the
        (nagents, p, n) array Z, as (nagents, p, b)."""
        nu, p = Z.shape[:2]
        return np.einsum("kpit,ik->kpt", Z[:, :, self.order].reshape(nu, p, nu, -1), self.transform)


@dataclass(frozen=True)
class ClosedLoop:
    """Simulable aggregate loop.

    Inputs are stacked [d (nu); n (nu)], outputs are the agent outputs
    y (nu).  ``x0_map`` injects per-agent initial output levels into the
    plant states (controller states start at zero), so y(0) = y0 for
    strictly proper plants.  ``modal`` is the loop's modal split when
    the network is uniform, None otherwise.
    """

    dynamics: StateSpace
    x0_map: np.ndarray
    nagents: int
    modal: ModalFactor | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0_map, dtype=float)
        if x0.shape != (self.dynamics.nstates, self.nagents):
            raise ValueError("x0_map shape mismatch")
        x0.setflags(write=False)
        object.__setattr__(self, "x0_map", x0)
        if self.dynamics.ninputs != 2 * self.nagents or self.dynamics.noutputs != self.nagents:
            raise ValueError("closed loop must map [d; n] to y")

    def noise_transfer(self, s: complex) -> np.ndarray:
        return self.dynamics.eval(s)[:, self.nagents :]


@dataclass(frozen=True)
class ModalAnalysis:
    """Network modes and per-agent local-loop transfers."""

    alphas: np.ndarray
    local_sensitivities: list
    disturbance_transfers: list


@dataclass(frozen=True)
class AgreementCertificate:
    """Outcome of the agreement test for (Fa, spectrum) pairs."""

    passed: bool
    agreement_poles: np.ndarray
    failures: list


@dataclass(frozen=True)
class CancellationVerdict:
    """Necessary-condition test for cancellation of an agreement pole.

    ``holds`` means every supplied loop transfer vanishes at the pole,
    i.e. the necessary condition for the pole to cancel is met.  This
    is not a sufficiency statement.
    """

    pole: complex
    holds: bool
    vanishes: list

    @property
    def verdict(self) -> str:
        return "NECESSARY-CONDITION-HOLDS" if self.holds else "CANCELLATION-EXCLUDED"


# -- loop assembly ------------------------------------------------------


def _assemble(
    plants: Sequence[StateSpace],
    banks: Sequence[tuple[Sequence[StateSpace], np.ndarray, np.ndarray]],
    similarity: tuple[np.ndarray, np.ndarray] | None = None,
) -> ClosedLoop:
    """Close u = sum_b bank_b(My_b y + Mn_b n) around y = P (u + d).

    The banks form one block-diagonal controller with the input
    My y + Mn n, My and Mn the banks' couplings stacked, whose outputs
    [I I ...] sums into u.  Returns the loop of the aggregate (A,
    [Bd Bn], C, [Dd Dn]) system and its y0-injection map.  The states
    are the plants' and then each bank's, agent after agent; given the
    similarity (M, M^{-1}) of a uniform network, the loop's modal
    factor lists them agent-major.
    """
    nu = len(plants)
    ctrls = [s for bank, _, _ in banks for s in bank]
    plant, ctrl = ss_block_diag(plants), ss_block_diag(ctrls)
    k, n = plant.nstates, plant.nstates + ctrl.nstates  # plant states, all states
    My = np.vstack([m for _, m, _ in banks])
    Mn = np.vstack([m for _, _, m in banks])
    eye = np.eye(nu)
    # [I I ...] C and [I I ...] D, summed without the product
    Cc = ctrl.C.reshape(len(banks), nu, -1).sum(axis=0)
    Dc = ctrl.D.reshape(len(banks), nu, -1).sum(axis=0)
    Dcy, Dcn = Dc @ My, Dc @ Mn

    E = eye - plant.D @ Dcy
    if abs(np.linalg.det(E)) < 1e-12:
        raise ValueError("algebraic loop: interconnection is not well posed")
    Ei = np.linalg.inv(E)
    # y and the plant input u + d as maps of [x_plant, x_ctrl, d, n]
    Y = np.hstack([Ei @ plant.C, Ei @ plant.D @ np.hstack([Cc, eye, Dcn])])
    U = np.hstack([np.zeros((nu, k)), Cc, eye, Dcn]) + Dcy @ Y
    X = np.vstack([plant.B @ U, (ctrl.B @ My) @ Y])  # the state derivative
    X[:k, :k] += plant.A
    X[k:, k:n] += ctrl.A
    X[k:, n + nu :] += ctrl.B @ Mn

    nrm2 = np.sum(plant.C**2, axis=1)  # y0 enters agent i's plant as C_i' / |C_i|^2
    if np.any(nrm2 == 0.0):
        raise ValueError("cannot set an initial output level on a static plant")
    x0_map = np.vstack([plant.C.T / nrm2, np.zeros((ctrl.nstates, nu))])
    agent = np.tile(np.arange(nu), 1 + len(banks)).repeat([s.nstates for s in [*plants, *ctrls]])
    modal = None if similarity is None else ModalFactor(*similarity, np.argsort(agent, kind="stable"))
    return ClosedLoop(StateSpace(X[:, :n], X[:, n:], Y[:, :n], Y[:, n:]), x0_map, nu, modal)


def _coefficients(tf: RationalTF) -> tuple[bytes, bytes]:
    """The bits of a transfer's coefficients: equal keys give equal
    results, bit for bit, of any computation on the transfer.  Sharing
    and uniformity (one key for all agents) go by this key."""
    return tf.num.coeffs.tobytes(), tf.den.coeffs.tobytes()


def _realized(tfs: Sequence[RationalTF]) -> list[StateSpace]:
    """tf_to_ss of each transfer, realized once per distinct transfer."""
    keys = [_coefficients(tf) for tf in tfs]
    done = {key: tf_to_ss(tf) for key, tf in dict(zip(keys, tfs)).items()}
    return [done[key] for key in keys]


def _validate_network(g: Graph, agents: Sequence[AgentModel]) -> None:
    if not is_connected(g):
        raise ValueError("protocol requires a connected graph")
    if len(agents) != g.n:
        raise ValueError(f"need {g.n} agents, got {len(agents)}")
    for i, a in enumerate(agents, start=1):
        if not a.plant.is_proper:
            raise ValueError(f"agent {i}: plant is improper")


def _validate_twodof_network(g: Graph, agents: Sequence[AgentModel]) -> None:
    """`_validate_network`, and every agent has a neighbor: the
    distributed path averages the neighbors' outputs.  A connected graph
    leaves an agent without one only when it is alone."""
    _validate_network(g, agents)
    if g.n == 1:
        raise ValueError("2DOF protocol needs every agent to have a neighbor")


def build_classic(g: Graph, agents: Sequence[AgentModel], cfg: ClassicConfig) -> ClosedLoop:
    """Closed loop of the diffusive protocol.

    The controller path realizes u = K F (-L y + D n) with the per-agent
    aggregated noise n_i on the noise channels; for integrator plants
    and F = 1 this is ydot = -K L y + K D n + d.  With one gain and one
    plant (one `_coefficients` key) every state group splits by V of
    L = V Lambda V'.  A lone agent is its plant with L = 0.
    """
    _validate_network(g, agents)
    nu = g.n
    k = np.asarray(cfg.gains, dtype=float).reshape(-1)
    if k.size == 1:
        k = np.full(nu, k[0])
    if k.size != nu:
        raise ValueError(f"need {nu} gains, got {k.size}")
    if np.any(k <= 0):
        raise ValueError("consensus gains must be positive")
    F = cfg.shared_filter
    if not F.is_proper:
        raise ValueError("shared filter must be proper")
    bank = _realized([F * RationalTF.constant(k[i]) for i in range(nu)])
    plants = _realized([a.plant for a in agents])
    L = laplacian(g)
    similarity = None
    if np.all(k == k[0]) and len({_coefficients(a.plant) for a in agents}) == 1:
        v = np.linalg.eigh(L)[1]
        similarity = v, v.T
    return _assemble(plants, [(bank, -L, np.diag(degrees(g)))], similarity)


def _agent_loops(agents: Sequence[AgentModel], fa: RationalTF) -> tuple[list, list]:
    """Each agent's local loop (S_i, Td_i) and feedforward
    (P_i^{-1} - Fd_i) Fa, formed once per distinct (plant, controller)
    pair and shared by the agents of that pair.  Every local loop is
    checked before any feedforward, so the first error reported names
    the first agent whose loop fails."""
    keys, loops = [], {}
    for i, a in enumerate(agents, start=1):
        if a.local_controller is None:
            raise ValueError(f"agent {i}: 2DOF protocol needs a local controller")
        if not a.local_controller.is_proper:
            raise ValueError(f"agent {i}: local controller unrealizable (improper Fd)")
        keys.append(_coefficients(a.plant) + _coefficients(a.local_controller))
        if keys[-1] not in loops:
            S, Td = tf_feedback(a.plant, a.local_controller)
            if np.max(poly_roots(S.den).real) >= -HURWITZ_MARGIN:
                raise ValueError(f"agent {i}: local controller does not stabilize the plant")
            loops[keys[-1]] = (S, Td)
    feedforwards = {}
    for i, (a, key) in enumerate(zip(agents, keys), start=1):
        if key not in feedforwards:
            feedforwards[key] = (tf_inverse(a.plant) - a.local_controller) * fa
            if not feedforwards[key].is_proper:
                raise ValueError(
                    f"agent {i}: consistency condition unrealizable (improper feedforward)"
                )
    return [loops[k] for k in keys], [feedforwards[k] for k in keys]


def build_2dof(g: Graph, agents: Sequence[AgentModel], cfg: TwoDofConfig) -> ClosedLoop:
    """Closed loop of the 2DOF protocol, assembled at the agent level:
    a decentralized feedback path Fd_i y_i plus a distributed path
    (P_i^{-1} - Fd_i) Fa applied to the neighbor average and noise.
    With one plant and one controller (one `_coefficients` key of the
    pair) every state group splits by U^{-1} of `modal_transform`."""
    _validate_twodof_network(g, agents)
    adjn = normalized_adjacency(g)
    nu = g.n
    _, feedforwards = _agent_loops(agents, cfg.network_filter)
    fd_bank = _realized([a.local_controller for a in agents])
    kff_bank = _realized(feedforwards)
    plants = _realized([a.plant for a in agents])
    similarity = None
    if len({_coefficients(a.plant) + _coefficients(a.local_controller) for a in agents}) == 1:
        md = modal_transform(g)
        similarity = md.Uinv, md.U
    eye = np.eye(nu)
    return _assemble(plants, [(fd_bank, eye, np.zeros((nu, nu))), (kff_bank, adjn, eye)], similarity)


# -- modal analysis and certificates ------------------------------------


def mode_transfer(fa: RationalTF, alpha: float) -> RationalTF:
    """T = 1/(1 - alpha Fa) as an exact rational identity."""
    den = fa.den - fa.num.scaled(alpha)
    if den.is_zero:
        raise ZeroDivisionError("1 - alpha*Fa vanishes identically")
    return RationalTF(fa.den, den)


def check_agreement(fa: RationalTF, alphas: Sequence[float]) -> AgreementCertificate:
    """Agreement certificate for a network filter and a graph spectrum.

    Modes with alpha != 1 must be stable and proper; the alpha = 1 mode
    may keep simple imaginary-axis poles, which become the agreement
    poles shaping the common trajectory (a single pole at the origin
    means consensus).
    """
    alphas = np.asarray(alphas, dtype=float)
    ones = np.nonzero(np.abs(alphas - 1.0) <= 1e-9)[0]
    if ones.size != 1:
        raise ValueError("spectrum must contain the eigenvalue 1 exactly once")
    failures = []
    agreement_poles = np.zeros(0, dtype=complex)
    for i, alpha in enumerate(alphas):
        agreement = i == ones[0]
        mode = "agreement mode" if agreement else "mode"
        t = mode_transfer(fa, alpha)
        if not t.is_proper:
            failures.append((float(alpha), f"improper {mode}"))
            continue
        poles = tf_poles(t)
        if np.any(poles.real > HURWITZ_MARGIN if agreement else poles.real >= -HURWITZ_MARGIN):
            failures.append((float(alpha), f"unstable {mode}"))
        elif agreement:
            axis = poles[np.abs(poles.real) <= HURWITZ_MARGIN]
            gaps = np.abs(axis[:, None] - axis[None, :])[np.triu_indices(axis.size, 1)]
            if np.any(gaps <= _REPEATED_POLE_TOL):
                failures.append((float(alpha), "repeated imaginary-axis agreement pole"))
            else:
                agreement_poles = axis
    return AgreementCertificate(
        passed=not failures,
        agreement_poles=agreement_poles,
        failures=failures,
    )


def modal_analysis(
    g: Graph, agents: Sequence[AgentModel], cfg: TwoDofConfig
) -> ModalAnalysis:
    _validate_twodof_network(g, agents)
    md = modal_transform(g)
    loops, _ = _agent_loops(agents, cfg.network_filter)
    return ModalAnalysis(
        alphas=md.alphas,
        local_sensitivities=[s for s, _ in loops],
        disturbance_transfers=[td for _, td in loops],
    )


def check_cancellation(p: complex, loop_tfs: Sequence[RationalTF]) -> CancellationVerdict:
    """Necessary condition for an agreement pole p to cancel against the
    local loops: p must be a zero of every supplied transfer.

    The test is numerator-root proximity after exact-tolerance
    cancellation; it can only exclude cancellation, never prove it.
    """
    p = complex(p)
    if abs(p.real) > IMAG_AXIS_TOL:
        raise ValueError("cancellation check applies to imaginary-axis poles only")
    vanishes, zeros = [], {}  # the zeros of each distinct transfer
    for tf in loop_tfs:
        key = _coefficients(tf)
        if key not in zeros:
            zeros[key] = tf_zeros(tf)  # none for a zero transfer, which vanishes everywhere
        near = bool(zeros[key].size) and float(np.min(np.abs(zeros[key] - p))) <= IMAG_AXIS_TOL
        vanishes.append(tf.num.is_zero or near)
    return CancellationVerdict(pole=p, holds=all(vanishes), vanishes=vanishes)


# -- noise-model resolution ----------------------------------------------


def classic_noise_disagreement_variance(
    g: Graph, gain: float, model: str = "per-link"
) -> float:
    """Steady-state mean per-agent variance of the disagreement vector
    y - mean(y) * ones for the classic integrator loop ydot = -kLy + kDn.

    model "per-link" takes unit-intensity link noises aggregated by
    1/|N_i| (so n has covariance D^{-1}); "per-agent" takes
    unit-intensity white noise directly on each aggregated channel.

    The value is the trace of the Lyapunov solution on the disagreement
    subspace, divided by nu.  With L = sum_i lambda_i v_i v_i' and the
    noise weight W = D (per-link) or D^2 (per-agent) it is

        (k / 2 nu) sum_{i >= 2} v_i' W v_i / lambda_i.
    """
    d = degrees(g)
    if model == "per-link":
        weight = d
    elif model == "per-agent":
        weight = d * d
    else:
        raise ValueError(f"unknown noise model {model!r}")
    if not is_connected(g):
        raise ValueError("disagreement variance requires a connected graph")
    if not gain > 0.0:
        raise ValueError("consensus gain must be positive")
    lam, v = np.linalg.eigh(laplacian(g))  # ascending, orthonormal
    return gain / (2.0 * g.n) * float(np.sum(weight @ v[:, 1:] ** 2 / lam[1:]))
