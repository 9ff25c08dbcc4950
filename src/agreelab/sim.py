"""Fixed-step simulation of closed loops, signal generators and metrics.

The deterministic integrator is classic fourth-order Runge-Kutta.  For
an LTI system with piecewise-constant inputs the four stages collapse
to the affine update x <- Phi x + Gamma B u with

    Phi   = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    Gamma = h (I + hA/2 + (hA)^2/6 + (hA)^3/24)

which is exactly the RK4 map, so the dt^4 convergence behavior is
preserved.
White noise enters Euler-Maruyama style: an increment of standard
deviation sigma*sqrt(dt) per channel per step, gated by the onset time,
on top of the fourth-order deterministic update.

Two routines make every path.  A noise-free run, `integrate`, jumps
(`_Jumps`): under an input held constant the RK4 map is linear, so
from the state at the start of each sub-block of L = _JUMP nodes one
matrix product gives the outputs of all its nodes, and one increment
x <- x + ((Phi^L - I) x + F_L) the start of the next (scaling and
squaring, Moler and Van Loan, SIAM Review 2003, applied to the
discrete map).  The sub-blocks an onset splits, the horizon's last
partial one and any whose states cannot be bounded below
DIVERGENCE_LIMIT are stepped.  The discrete system is the stepped one;
only the order of the floating-point operations differs, so
`integrate` agrees with stepping to rounding (within 1e-11 of the
largest output in the tests), not bit for bit.

A noisy run is one `run_ensemble` call, stepped by `_Prepared.blocks`
one block of grid nodes at a time: its R members and its noise-free
twin, the same run with every measurement channel at zero, as one batch
of R + 1 paths.  A path has the same bits as when it is stepped alone
over the whole horizon, whatever the other members, as far as BLAS
gives each row of a product the same bits at any row count.

A run's memory is its outputs plus O(_CHUNK x members x states), and
the jump tables' O(_JUMP x states^2): no input table spans the
horizon.  Each channel's step input is kept as an onset node and an
amplitude, and `_Prepared.inputs` builds the drive and feedthrough of
one block's nodes at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .protocol import ClosedLoop

__all__ = [
    "SignalSpec",
    "Trajectory",
    "EnsembleStats",
    "SimulationDiverged",
    "integrate",
    "run_ensemble",
    "settling_time",
    "least_squares_slope",
    "rk4_transition",
]

DIVERGENCE_LIMIT = 1e9

SETTLING_BAND = 0.02  # of `settling_time`, a fraction of the initial deviation

DRIFT_MIN_REALIZATIONS = 30  # an ensemble's drift slope needs this many members

# Grid nodes per block: the noise draws, the divergence test and the
# ensemble statistics run once per block, not once per step.
_CHUNK = 256

# Grid nodes per jump of a noise-free run (a power of two): each state
# a jump makes is x_{k+8} = x_k + ((Phi^8 - I) x_k + F_8).
_JUMP = 8

# Trajectory CSV rows formatted per write: bounded, so the text of a long
# run is never held whole.
_CSV_ROWS = 1024


class SimulationDiverged(RuntimeError):
    """State magnitude crossed the divergence threshold."""

    def __init__(self, time: float):
        super().__init__(f"simulation diverged at t = {time:.6g} s")
        self.time = time


@dataclass(frozen=True)
class SignalSpec:
    """Per-channel input description.

    kind is one of "zero", "step" (amplitude from the onset time on) or
    "white_noise" (two-sided spectral density `intensity`, active from
    the onset time on).
    """

    kind: str
    amplitude: float = 0.0
    onset: float = 0.0
    intensity: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "step", "white_noise"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.onset < 0:
            raise ValueError("onset must be nonnegative")
        if self.kind == "white_noise" and self.intensity < 0:
            raise ValueError("noise intensity must be nonnegative")

    @staticmethod
    def zero() -> "SignalSpec":
        return SignalSpec("zero")

    @staticmethod
    def step(amplitude: float, onset: float = 0.0) -> "SignalSpec":
        return SignalSpec("step", amplitude=float(amplitude), onset=float(onset))

    @staticmethod
    def white_noise(intensity: float, onset: float = 0.0) -> "SignalSpec":
        return SignalSpec("white_noise", intensity=float(intensity), onset=float(onset))

    @property
    def is_stochastic(self) -> bool:
        return self.kind == "white_noise"


@dataclass(frozen=True)
class Trajectory:
    """Outputs on a uniform time grid of at least two points."""

    times: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if t.ndim != 1 or y.shape[0] != t.size:
            raise ValueError("times and outputs are inconsistent")
        if t.size < 2:
            raise ValueError("trajectory needs at least two grid points")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "outputs", y)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def nagents(self) -> int:
        return self.outputs.shape[1]

    def index_at(self, t: float) -> int:
        k = int(round(t / self.dt))
        if k < 0 or k >= self.times.size or abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the simulation grid")
        return k

    def write_csv(self, path: str | Path) -> None:
        """CRLF rows of every value as %.17g, which reads back bit for bit;
        one % operation formats a block of _CSV_ROWS rows."""
        header = ",".join(["t"] + [f"y{i + 1}" for i in range(self.nagents)])
        row = ",".join(["%.17g"] * (self.nagents + 1)) + "\r\n"
        with Path(path).open("w", newline="") as fh:
            fh.write(header + "\r\n")
            for k in range(0, self.times.size, _CSV_ROWS):
                block = np.column_stack([self.times[k:k + _CSV_ROWS], self.outputs[k:k + _CSV_ROWS]])
                fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))

    @staticmethod
    def read_csv(path: str | Path) -> "Trajectory":
        with Path(path).open() as fh:
            if fh.readline().split(",")[0].strip() != "t":
                raise ValueError("trajectory CSV must start with a 't' column")
            with warnings.catch_warnings():  # a header-only file fails below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        return Trajectory(times=data[:, 0], outputs=data[:, 1:])


def rk4_transition(A: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Gamma) of the RK4 step for constant-input LTI dynamics."""
    n = A.shape[0]
    eye = np.eye(n)
    hA = dt * A
    P2 = hA @ hA
    P3 = P2 @ hA
    P4 = P3 @ hA
    phi = eye + hA + P2 / 2.0 + P3 / 6.0 + P4 / 24.0
    gamma = dt * (eye + hA / 2.0 + P2 / 6.0 + P3 / 24.0)
    return phi, gamma


def _as_spec_list(spec, m: int, label: str) -> list[SignalSpec]:
    if isinstance(spec, SignalSpec):
        return [spec] * m
    spec = list(spec)
    if len(spec) != m:
        raise ValueError(f"{label} needs {m} channel specs, got {len(spec)}")
    return spec


def _onset_index(onset: float, dt: float, nsteps: int) -> int:
    k = int(round(onset / dt))
    return min(max(k, 0), nsteps)


class _Prepared:
    """Integration tables shared by the members of a run.

    Nothing here grows with the step count but `times`: each channel's
    step input is kept as its onset node and amplitude, and `blocks`
    builds one block's inputs from them at a time.  A run's memory is
    its outputs plus O(_CHUNK x members x states).
    """

    __slots__ = (
        "phi", "gb", "x0", "C", "Dmat", "onset", "amp", "bn", "noise_scale",
        "noise_gate", "dt", "nsteps", "times",
    )

    def __init__(self, loop, d, n, y0, dt, T):
        if not isinstance(loop, ClosedLoop):
            raise TypeError("expected a ClosedLoop")
        if dt <= 0:
            raise ValueError("dt must be positive")
        nu = loop.nagents
        d_specs = _as_spec_list(d, nu, "disturbance")
        n_specs = _as_spec_list(n, nu, "noise")
        for s in d_specs:
            if s.is_stochastic:
                raise ValueError("white noise is only supported on the noise channels")
        specs = d_specs + n_specs
        sys = loop.dynamics
        nsteps = int(round(T / dt))
        if nsteps < 1:
            raise ValueError("horizon too short for the step size")
        white = np.array([s.is_stochastic for s in specs], dtype=bool)
        if np.any(np.abs(sys.D[:, white]) > 0.0):
            raise ValueError("white-noise channel with direct feedthrough is not simulable")
        self.phi, gamma = rk4_transition(sys.A, dt)
        self.gb = gamma @ sys.B
        y0 = np.asarray(y0, dtype=float).reshape(-1)
        if y0.size != nu:
            raise ValueError(f"y0 needs {nu} entries")
        self.x0 = loop.x0_map @ y0
        self.C = sys.C
        self.Dmat = sys.D
        # a step channel's input is amp from node onset on; a noise
        # channel's increments are gated by its onset node the same way
        self.onset = np.array([_onset_index(s.onset, dt, nsteps) for s in specs], dtype=np.int64)
        self.amp = np.array([s.amplitude if s.kind == "step" else 0.0 for s in specs])
        self.bn = sys.B[:, white]
        self.noise_scale = np.array([np.sqrt(s.intensity * dt) for s in specs if s.is_stochastic])
        self.noise_gate = self.onset[white]
        self.dt = dt
        self.nsteps = nsteps
        self.times = np.arange(nsteps + 1) * dt

    @property
    def n_noise(self) -> int:
        return self.bn.shape[1]

    def inputs(self, k0: int, amp: np.ndarray, last=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, drive, feed) of nodes k0 - 1 ... k0 + _CHUNK under the step
        levels `amp`, row j for node k0 - 1 + j: the input, the input term
        of the step that leaves the node, and the input's direct
        feedthrough at it.  The products have the same shape in every
        block, so a node's row has the same bits in whichever block it
        falls, and `last`, an earlier block's result, is returned as it is
        when its inputs are this block's: most blocks hold no onset."""
        u = np.where(np.arange(k0 - 1, k0 + _CHUNK + 1)[:, None] >= self.onset, amp, 0.0)
        if last is not None and np.array_equal(u, last[0]):
            return last
        return u, u @ self.gb.T, u @ self.Dmat.T

    def blocks(self, seed: int | None, members: Sequence[int | None]) -> Iterator[tuple[int, np.ndarray]]:
        """Outputs of ensemble members `members` of master seed `seed`,
        _CHUNK grid nodes at a time.  A member None is the noise-free
        twin: the same run with every measurement channel at zero, steps
        as well as noise.  Twins must come before the other members.

        Yields (k0, y) with y[j, i] the outputs of member members[i] at
        node k0 + j; y is overwritten by the next block.  Raises
        SimulationDiverged at the first node at which a state magnitude
        of any member reaches DIVERGENCE_LIMIT.
        """
        n, R, nn = self.phi.shape[0], len(members), self.n_noise
        realizations = [r for r in members if r is not None]
        lo = R - len(realizations)  # rows :lo are twins
        rngs = []
        if nn > 0:
            rngs = [np.random.Generator(np.random.Philox(member_seed(seed, r))) for r in realizations]
        levels = [(slice(0, R), self.amp)]  # (member rows, their step levels)
        nu = self.C.shape[0]  # the measurement channels follow the nu disturbance channels
        if lo and self.amp[nu:].any():
            twin = self.amp.copy()
            twin[nu:] = 0.0
            levels = [(slice(0, lo), twin), (slice(lo, R), self.amp)]
        last = [None] * len(levels)  # each level's inputs in the block before
        # Products run over whole buffers, so every BLAS call has the same
        # shape whatever the block.  Row 0 of x is the node before the
        # block.  The last block takes up to _CHUNK + 1 nodes: numpy routes
        # a one-row product to another BLAS routine, whose bits can differ.
        x = np.zeros((_CHUNK + 2, R, n))
        w = np.zeros((len(rngs), _CHUNK + 1, nn))
        x[1] = self.x0
        npts = self.nsteps + 1
        k0 = 0
        while k0 < npts:
            rows = npts - k0 if npts - k0 <= _CHUNK + 1 else _CHUNK
            first = max(k0, 1)  # first node stepped in this block
            s, m = first - k0 + 1, k0 + rows - first  # its buffer row, the step count
            feeds = []
            for i, (members_of, amp) in enumerate(levels):
                last[i] = _, drive, feed = self.inputs(k0, amp, last[i])
                x[s:rows + 1, members_of] = drive[s - 1:rows, None, :]
                feeds.append((members_of, feed[1:rows + 1, None, :]))
            if rngs:
                for wr, rng in zip(w, rngs):
                    rng.standard_normal(out=wr[:m])
                w[:, :m] *= self.noise_scale
                for c, k_on in enumerate(self.noise_gate):
                    w[:, :min(max(k_on - first + 1, 0), m), c] = 0.0
                x[s:rows + 1, lo:] += w[:, :m].transpose(1, 0, 2) @ self.bn.T
            blow = _kernels.affine_path(self.phi, x[s - 1:rows + 1], DIVERGENCE_LIMIT)
            if blow >= 0:
                raise SimulationDiverged((first - 1 + blow) * self.dt)
            y = (x[1:].reshape(-1, n) @ self.C.T).reshape(_CHUNK + 1, R, -1)[:rows]
            for members_of, feed in feeds:
                y[:, members_of] += feed
            yield k0, y
            x[0] = x[rows]
            k0 += rows


def _rk4_increment(A: np.ndarray, dt: float) -> np.ndarray:
    """Phi - I of the RK4 step in Horner form, hA (I + hA (I/2 + hA (I/6
    + hA/24))): forming Phi and subtracting I would cancel the digits of
    a small hA."""
    n = A.shape[0]
    hA = dt * A
    delta = hA / 24.0
    for c in (1.0 / 6.0, 0.5, 1.0):
        delta.flat[::n + 1] += c
        delta = hA @ delta
    return delta


class _Jumps:
    """The jump path of a noise-free run.

    Sub-block i is the _JUMP nodes from node s = i * _JUMP on.  Under an
    input u held over the sub-block, node s + j has the state Phi^j x_s +
    F_j and the output C x_s + O_j x_s + c_j, with O_j = C (Phi^j - I),
    F_j the forced response from x = 0 and c_j = C F_j + D u; the next
    sub-block starts from x_s + (Delta_L x_s + F_L), Delta_L = Phi^L - I,
    L = _JUMP.  The tables are O(_JUMP x states^2).  Stepped by
    `_kernels.affine_path` instead: the sub-blocks an onset splits, the
    horizon's last partial one, and any whose bound on its states,
    |x_s| max(1, |Phi|)^L + max_j |F_j| (infinity norms), is not below
    DIVERGENCE_LIMIT, so a divergence is reported at the node stepping
    finds.
    """

    def __init__(self, prep: _Prepared, A: np.ndarray):
        self.prep = prep
        C = prep.C
        delta = _rk4_increment(A, prep.dt)
        # O_{j+1} = O_j + (C + O_j) Delta; row block 0 holds C itself
        stack = np.empty((_JUMP, *C.shape))
        stack[0] = C
        stack[1] = C @ delta
        for j in range(1, _JUMP - 1):
            stack[j + 1] = stack[j] + (C + stack[j]) @ delta
        self.stack = stack.reshape(-1, C.shape[1]).T
        for _ in range(_JUMP.bit_length() - 1):  # (Phi^m)^2 - I = 2 Delta_m + Delta_m^2
            delta = delta @ delta + 2.0 * delta
        self.delta = delta
        # |x_s| growth + max_j |F_j| bounds the states of the L steps after x_s
        self.growth = max(1.0, float(np.abs(prep.phi).sum(axis=1).max())) ** _JUMP
        # one input level per stretch between onsets, from stretch start node
        self.starts = np.array(sorted({0, *prep.onset.tolist()}))
        self.levels = [self._level(np.where(s >= prep.onset, prep.amp, 0.0)) for s in self.starts]

    def _level(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(F_L, c, max_j |F_j|) of the input level u."""
        p = self.prep
        forced = np.zeros((_JUMP + 1, 1, p.phi.shape[0]))
        forced[1:] = p.gb @ u
        _kernels.affine_path(p.phi, forced, DIVERGENCE_LIMIT)
        forced = forced[:, 0]
        c = forced[:_JUMP] @ p.C.T + p.Dmat @ u
        return forced[_JUMP], c, float(np.abs(forced).max())

    def run(self, y: np.ndarray) -> None:
        """Outputs of every node into y; raises SimulationDiverged at the
        first node at which a state magnitude reaches DIVERGENCE_LIMIT."""
        p, L, last = self.prep, _JUMP, self.prep.nsteps
        nu = y.shape[1]
        x = np.empty((_CHUNK // L + 1, p.phi.shape[0]))  # sub-block starts
        x[0] = p.x0
        s = 0
        while s <= last:
            v = int(np.searchsorted(self.starts, s, side="right")) - 1
            end = self.starts[v + 1] if v + 1 < self.starts.size else last + 1
            r = min((end - s) // L, _CHUNK // L)  # whole sub-blocks under level v
            if r:
                f_jump, c, fmax = self.levels[v]
                with np.errstate(all="ignore"):
                    for i in range(r):
                        np.matmul(self.delta, x[i], out=x[i + 1])
                        x[i + 1] += f_jump
                        x[i + 1] += x[i]
                    ok = np.abs(x[:r]).max(axis=1) * self.growth + fmax < DIVERGENCE_LIMIT
                r = int(np.argmin(np.append(ok, False)))  # certified sub-blocks
            if r:
                z = y[s:s + r * L].reshape(r, L, nu)
                np.matmul(x[:r], self.stack, out=z.reshape(r, L * nu))
                z[:, 1:] += z[:, :1]
                z += c
                x[0] = x[r]
                s += r * L
            else:
                x[0] = self._step(s, x[0], y)
                s += L

    def _step(self, s: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Steps the sub-block at node s from its state x into y; returns
        the state of the node after it (or of the last node)."""
        p = self.prep
        e = min(s + _JUMP, p.nsteps)  # last node stepped to
        u = np.where(np.arange(s, e + 1)[:, None] >= p.onset, p.amp, 0.0)
        path = np.empty((e - s + 1, 1, x.size))
        path[0, 0] = x
        path[1:, 0] = u[:-1] @ p.gb.T
        blow = _kernels.affine_path(p.phi, path, DIVERGENCE_LIMIT)
        if blow >= 0:
            raise SimulationDiverged((s + blow) * p.dt)
        rows = min(s + _JUMP, p.nsteps + 1) - s
        y[s:s + rows] = path[:rows, 0] @ p.C.T + u[:rows] @ p.Dmat.T
        return path[-1, 0]


def integrate(loop, d, n, y0, dt: float, T: float) -> Trajectory:
    """Deterministic RK4 run by the jump path; white-noise specs are
    rejected.  The tables are built before the outputs are allocated."""
    prep = _Prepared(loop, d, n, y0, dt, T)
    if prep.n_noise > 0:
        raise ValueError("integrate handles deterministic signals only")
    jumps = _Jumps(prep, loop.dynamics.A)
    y = np.empty((prep.nsteps + 1, loop.nagents))
    jumps.run(y)
    return Trajectory(times=prep.times, outputs=y)


def member_seed(master_seed: int, realization: int) -> np.random.SeedSequence:
    """Counter-based split of a master seed into per-realization streams."""
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(realization),))


@dataclass(frozen=True)
class EnsembleStats:
    """The two-pass mean and variance over the members of each node of
    one scalar output projection, the paths of the first members and the
    final mean output of the noise-free twin."""

    times: np.ndarray
    count: int
    mean: np.ndarray
    variance: np.ndarray
    finals: np.ndarray
    reference: float
    paths: list[Trajectory]

    def drift_slope(self) -> float | None:
        """Least-squares slope of the variance over [T/2, T]; None below
        DRIFT_MIN_REALIZATIONS realizations or two grid nodes in the window."""
        mask = self.times >= self.times[-1] / 2.0 - 1e-12
        if self.count < DRIFT_MIN_REALIZATIONS or np.count_nonzero(mask) < 2:
            return None
        return least_squares_slope(self.times[mask], self.variance[mask])


def least_squares_slope(t: np.ndarray, v: np.ndarray) -> float:
    """Slope of the least-squares line through the points (t, v)."""
    tbar = t.mean()
    return float(np.dot(t - tbar, v - v.mean()) / np.dot(t - tbar, t - tbar))


def run_ensemble(
    loop, d, n, y0, dt: float, T: float, seed: int, realizations: int,
    projection: np.ndarray, keep: int = 1,
) -> EnsembleStats:
    """Monte-Carlo ensemble of stochastic runs and their noise-free twin.

    Member r is driven by the stream member_seed(seed, r), so the
    statistics do not depend on evaluation order.  The twin, the same run
    with every measurement channel at zero, is stepped with the members.
    Each block of grid nodes gives the two-pass mean and variance over the
    members of each node; only the whole paths of members 0..keep-1 are
    kept.  A divergence is reported at the earliest grid time at which
    any path, the twin's or a member's, crosses the limit.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if not 1 <= keep <= realizations:
        raise ValueError("keep must be between 1 and the realization count")
    prep = _Prepared(loop, d, n, y0, dt, T)
    projection = np.asarray(projection, dtype=float).reshape(-1)
    if projection.size != loop.nagents:
        raise ValueError("projection length must equal the agent count")
    npts = prep.nsteps + 1
    mean = np.empty(npts)
    variance = np.empty(npts)
    kept = np.empty((keep, npts, loop.nagents))
    for k0, y in prep.blocks(seed, [None, *range(realizations)]):
        nodes = slice(k0, k0 + y.shape[0])
        kept[:, nodes] = y[:, 1:keep + 1].transpose(1, 0, 2)
        # a reduction over the agent axis, not a product: BLAS may give a
        # product other bits at another member count
        z = (y[:, 1:] * projection).sum(axis=2)
        mean[nodes] = z.mean(axis=1)
        # the divisor of one member is 1, not 0: its variance is zero
        variance[nodes] = np.square(z - mean[nodes, None]).sum(axis=1) / max(realizations - 1, 1)
    return EnsembleStats(
        times=prep.times,
        count=realizations,
        mean=mean,
        variance=variance,
        finals=y[-1, 1:].copy(),
        reference=float(np.mean(y[-1, 0])),
        paths=[Trajectory(times=prep.times, outputs=path) for path in kept],
    )


def settling_time(traj: Trajectory) -> float:
    """Smallest grid time after which every output stays within
    SETTLING_BAND * initial deviation of the terminal consensus value."""
    y = traj.outputs
    y_final = float(np.mean(y[-1]))
    dev = np.max(np.abs(y - y_final), axis=1)
    threshold = SETTLING_BAND * np.max(np.abs(y[0] - y_final))
    above = np.nonzero(dev > threshold)[0]
    if above.size == 0:
        return 0.0
    k = above[-1] + 1
    if k >= traj.times.size:
        raise RuntimeError("unsettled: trajectory never enters the band")
    return float(traj.times[k])
