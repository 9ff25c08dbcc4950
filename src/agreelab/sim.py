"""Fixed-step simulation of closed loops, signal generators and metrics.

The deterministic integrator is classic fourth-order Runge-Kutta.  For
an LTI system with piecewise-constant inputs the four stages collapse
to the affine update x <- Phi x + Gamma B u with

    Phi   = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    Gamma = h (I + hA/2 + (hA)^2/6 + (hA)^3/24)

which is exactly the RK4 map, so the dt^4 convergence behavior is
preserved.
White noise enters Euler-Maruyama style: an increment of standard
deviation sigma*sqrt(dt) per channel per step from the onset time on,
on top of the fourth-order deterministic update.  The inputs are held
per stretch: between node 0, every channel's onset and the horizon,
every step channel holds one level and every noise channel one
standard deviation (0 before its onset).

Two paths make the runs, and the loop's structure selects between them.
`integrate` on a loop with a modal factor, the loop of a uniform network
(`protocol.ModalFactor`), runs the decoupled modes, nagents loops of b
states each, block by block (`_integrate_modes`).  Every other run, a
noise-free one of any other loop and every noisy one, is a batch of the
jump engine (`_Jumps`): `integrate` a batch of one path, `run_ensemble`
a batch of its R members.  The ensemble's noise-free twin, the same run
with every measurement channel at zero, is an `integrate` run of its
own, modal on a uniform network.  Under an input held constant the
RK4 map is affine, so from the state at the start of each sub-block of
L = _JUMP nodes one matrix product gives the outputs of all its nodes,
and one increment x <- x + ((Phi^L - I) x + F_L) the start of the next
(scaling and squaring, Moler and Van Loan, SIAM Review 2003, applied to
the discrete map).  The noise enters linearly: a member's draws over a
sub-block add two more products, with the Markov parameters C Phi^k bn
for its outputs and with the Phi^k bn for its next start.  Sub-blocks
start at the stretches' starts, so none crosses an onset; a stretch's
last fewer than L nodes and, per path, any sub-block whose states
cannot be bounded below DIVERGENCE_LIMIT are stepped, on the jumps'
kernel (`_kernels.affine_path`).  A modal block
whose states cannot be bounded makes
`integrate` redo the run on the jump engine, so a divergence is
reported where stepping finds it.  Both paths run the stepped discrete
system; only the order of the floating-point operations differs, so a
path agrees with stepping to rounding (within 1e-11 of the largest
output in the tests), not bit for bit.  Every product of the jump
engine runs per path, so a path has the same bits whatever the other
members of its batch, as far as BLAS gives a product of one shape the
same bits.

A run's memory is its outputs plus, on the jump path,
O(_CHUNK x paths x states) and the tables' O(_JUMP x states^2 + _JUMP^2
x noise channels x outputs), and on the modal path the tables'
O(nagents x _CHUNK x b) per input level: no input table spans the
horizon, and the modal path forms no dense Phi.

Trajectory CSVs are written and read on every usable CPU
(`_in_shares`): the rows split into one share per CPU, at most one per
block of _CSV_ROWS rows; the calling process handles the first share
and a forked child each later one, whose bytes come back through a
pipe.  The files and the arrays read back are those of a serial run,
byte for byte and bit for bit.  With one usable CPU, one block or no
os.fork the same code runs with no child.  Each share is parsed
_CSV_ROWS lines at a time, and only a block that fails is parsed again,
line by line: a bad file raises a ValueError naming its first bad line,
after the share pass and a one-share redo that stops at the first bad
block.  BENCH_parallel_csv.json has the timings against one process.
"""

from __future__ import annotations

import gc
import os
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .protocol import ClosedLoop, ModalFactor

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

# Grid nodes per jump (a power of two): each state a jump makes is
# x_{k+8} = x_k + ((Phi^8 - I) x_k + F_8) plus the injected noise.
_JUMP = 8

# Trajectory CSV rows formatted per write: bounded, so the text of a long
# run is never held whole.
_CSV_ROWS = 1024


class SimulationDiverged(RuntimeError):
    """State magnitude crossed the divergence threshold."""

    def __init__(self, time: float):
        super().__init__(f"simulation diverged at t = {time:.6g} s")
        self.time = time

    def __reduce__(self):
        return SimulationDiverged, (self.time,)


@dataclass(frozen=True)
class SignalSpec:
    """Per-channel input description.

    kind is one of "zero", "step" (amplitude from the onset time on) or
    "white_noise" (two-sided spectral density `intensity`, active from
    the onset time on), on from the grid node nearest the onset: an onset
    past the horizon that rounds past the last node never acts.
    """

    kind: str
    amplitude: float = 0.0
    onset: float = 0.0
    intensity: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "step", "white_noise"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not self.onset >= 0:  # NaN too; an infinite onset never acts
            raise ValueError("onset must be nonnegative")
        if not (np.isfinite(self.amplitude) and np.isfinite(self.intensity)):
            raise ValueError("amplitude and intensity must be finite")
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
        one % operation formats a block of _CSV_ROWS rows, and the
        `_in_shares` processes take contiguous runs of the blocks."""
        header = ",".join(["t"] + [f"y{i + 1}" for i in range(self.nagents)]) + "\r\n"
        row = ",".join(["%.17g"] * (self.nagents + 1)) + "\r\n"
        blocks = -(-self.times.size // _CSV_ROWS)

        def text(j, count):
            for k in range(j * blocks // count * _CSV_ROWS, (j + 1) * blocks // count * _CSV_ROWS, _CSV_ROWS):
                block = np.column_stack([self.times[k:k + _CSV_ROWS], self.outputs[k:k + _CSV_ROWS]])
                yield (row * block.shape[0] % tuple(block.ravel().tolist())).encode()

        with Path(path).open("wb") as fh:
            redo = False  # a redo starts the file over; the first run never seeks, so a pipe works

            def put(j, chunks):
                nonlocal redo
                if j == 0:
                    if redo:
                        fh.seek(0)
                        fh.truncate()
                    redo = True
                    fh.write(header.encode())
                fh.writelines(chunks)

            _in_shares(blocks, text, put)

    @staticmethod
    def read_csv(path: str | Path) -> "Trajectory":
        """A trajectory CSV, CRLF or LF line ends, from a seekable file.
        The body is cut at line ends into one byte range per `_in_shares`
        share, each parsed by np.loadtxt from its own handle _CSV_ROWS
        lines at a time.  A block that fails, or whose rows are not as
        wide as the share's first, is scanned line by line, and the
        ValueError names the file and the first bad line, counted from
        the header: exact in share 0, which the redo of a failed job is.
        Rows as wide as each other but not as the header raise too."""
        with Path(path).open("rb") as fh:
            header = fh.readline().split(b",")
            if header[0].strip() != b"t":
                raise ValueError("trajectory CSV must start with a 't' column")
            start = fh.tell()
            # lines are counted only as far as the share count can grow
            lines, most = 0, (os.cpu_count() or 1) * _CSV_ROWS
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                lines += chunk.count(b"\n")
                if lines >= most:
                    break
            size = fh.seek(0, os.SEEK_END) - start

        def cut(fh, j, count):
            """The offset at which share j starts: past a line end."""
            if j in (0, count):
                return start + size * j // count
            fh.seek(start + size * j // count)
            fh.readline()
            return fh.tell()

        def body(fh, n):
            """The lines of the next n bytes of fh, n at a line end."""
            while n > 0 and (chunk := fh.read(min(n, 1 << 16))):
                if not chunk.endswith(b"\n"):
                    chunk += fh.readline()
                n -= len(chunk)
                yield from chunk.splitlines(keepends=True)

        def parse(lines):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # blank lines
                return np.loadtxt(lines, delimiter=",", ndmin=2)

        def rows(j, count):
            """The bytes of share j's rows, block by block, then their
            width: the header's if the share holds no row."""
            width, number = 0, 2  # line 1 is the header
            with open(path, "rb") as fh:
                lo, hi = cut(fh, j, count), cut(fh, j + 1, count)
                fh.seek(lo)
                lines = body(fh, hi - lo)
                while block := list(islice(lines, _CSV_ROWS)):
                    try:
                        data = parse(block)
                    except ValueError:
                        data = None
                    if data is None or data.size and data.shape[1] != (width := width or data.shape[1]):
                        for k, line in enumerate(block):
                            try:
                                size = parse([line]).size  # 0 for a blank line
                                if size and size != (width := width or size):
                                    raise ValueError
                            except ValueError:
                                raise ValueError(f"{path}, line {number + k}: not a row of numbers as wide as the first") from None
                    yield data.tobytes()
                    number += len(block)
            yield (width or len(header)).to_bytes(8, "little")

        parts = []

        def take(j, chunks):
            if j == 0:  # a redo starts over
                parts.clear()
            blob = b"".join(chunks)
            part = np.frombuffer(blob, count=len(blob) // 8 - 1).reshape(-1, int.from_bytes(blob[-8:], "little"))
            # where the shares' widths differ one fails here, and the one-share redo names the line
            if part.size and part.shape[1] != len(header):
                raise ValueError(f"{path}: rows of {part.shape[1]} values under a header of {len(header)} fields")
            parts.append(part)

        _in_shares(-(-max(lines, 1) // _CSV_ROWS), rows, take)
        data = np.concatenate(parts)
        return Trajectory(times=data[:, 0], outputs=data[:, 1:])


def _in_shares(blocks: int, work, take) -> None:
    """Runs a CSV job of `blocks` blocks of rows as count = min(usable
    CPUs, blocks) shares: take(j, chunks) for each share j in order, the
    chunks the bytes that work(j, count) yields.

    The caller's process runs share 0 and streams its bytes to take.  Each
    later share runs in a child made by os.fork, which holds its share's
    bytes whole, so that it never waits on the parent, writes them into a
    pipe and leaves by os._exit; once its own share is done, the parent
    hands take each pipe's bytes in 64 KiB chunks.  Forking is safe here
    although numpy's OpenBLAS runs threads: a child calls no BLAS, touches
    no inherited file object and runs no garbage collection, which could
    finalize one.  Python >= 3.12 warns (DeprecationWarning) on a fork of
    a multi-threaded process; the warning is ignored around the fork
    alone.  The parent closes every read end before it reaps the
    children, so none is left running or blocked on a full pipe.  If a
    child fails, or anything else does while there is more than one
    share, the job is redone in-process as one share, which raises the
    error of a serial run.  Without os.fork or os.sched_getaffinity the
    job is one share.
    """
    count = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        count = min(len(os.sched_getaffinity(0)), blocks)
    pids, pipes, failed = [], [], False
    try:
        for j in range(1, count):
            r, w = os.pipe()
            pipes.append(r)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    gc.disable()
                    for fd in pipes:  # its own read end and its elder siblings'
                        os.close(fd)
                    with open(w, "wb") as out:
                        out.write(b"".join(work(j, count)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids.append(pid)
        take(0, work(0, count))
        for j, r in enumerate(pipes, start=1):
            with open(r, "rb", closefd=False) as pipe:
                take(j, iter(lambda: pipe.read(1 << 16), b""))
    except (OSError, ValueError):
        if count == 1:
            raise
        failed = True
    finally:
        for r in pipes:
            os.close(r)
        failed |= any([os.waitpid(pid, 0)[1] for pid in pids])  # a list: every child is reaped
    if failed:
        _in_shares(1, work, take)


def rk4_transition(A: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Phi, Gamma, Delta) of the RK4 step for constant-input LTI
    dynamics, Delta = Phi - I summed from the same powers of hA: forming
    Phi and subtracting I would cancel the digits of a small hA.  A stack
    of state matrices gives the stacks of their tables."""
    eye = np.eye(A.shape[-1])
    hA = dt * A
    P2 = hA @ hA
    P3 = P2 @ hA
    P4 = P3 @ hA
    phi = eye + hA + P2 / 2.0 + P3 / 6.0 + P4 / 24.0
    gamma = dt * (eye + hA / 2.0 + P2 / 6.0 + P3 / 24.0)
    delta = hA + P2 / 2.0 + P3 / 6.0 + P4 / 24.0
    return phi, gamma, delta


def _as_spec_list(spec, m: int, label: str) -> list[SignalSpec]:
    if isinstance(spec, SignalSpec):
        return [spec] * m
    spec = list(spec)
    if len(spec) != m:
        raise ValueError(f"{label} needs {m} channel specs, got {len(spec)}")
    return spec


class _Prepared:
    """The loop, inputs and start state shared by the paths of a run;
    each path builds its integration tables from them.

    The inputs are held per stretch: `stretches` are the [start, end)
    node ranges between node 0, every channel's onset and nsteps + 1.
    Over stretch v the channels hold the step levels levels[v] and the
    noise channels draw increments of standard deviation scales[v]:
    sqrt(intensity dt) from the channel's onset on, 0 before.  Nothing
    here grows with the step count but `times`.
    """

    __slots__ = ("A", "B", "x0", "C", "Dmat", "stretches", "levels", "bn", "scales", "dt", "nsteps", "times")

    def __init__(self, loop, d, n, y0, dt, T):
        if not isinstance(loop, ClosedLoop):
            raise TypeError("expected a ClosedLoop")
        if not dt > 0:
            raise ValueError("dt must be positive")
        nu = loop.nagents
        d_specs = _as_spec_list(d, nu, "disturbance")
        n_specs = _as_spec_list(n, nu, "noise")
        for s in d_specs:
            if s.is_stochastic:
                raise ValueError("white noise is only supported on the noise channels")
        specs = d_specs + n_specs
        sys = loop.dynamics
        if np.isnan(T):
            raise ValueError("horizon must be a number")
        if not np.isfinite(T / dt):
            raise ValueError("horizon too long for the step size")
        nsteps = int(round(T / dt))
        if nsteps < 1:
            raise ValueError("horizon too short for the step size")
        white = np.array([s.is_stochastic for s in specs], dtype=bool)
        if np.any(np.abs(sys.D[:, white]) > 0.0):
            raise ValueError("white-noise channel with direct feedthrough is not simulable")
        self.A, self.B = sys.A, sys.B
        y0 = np.asarray(y0, dtype=float).reshape(-1)
        if y0.size != nu:
            raise ValueError(f"y0 needs {nu} entries")
        self.x0 = loop.x0_map @ y0
        self.C = sys.C
        self.Dmat = sys.D
        # the node nearest each onset; nsteps + 1 for one that never acts
        onset = np.array([round(min(s.onset / dt, nsteps + 1)) for s in specs], dtype=np.int64)
        starts = sorted({0, *onset.tolist()} - {nsteps + 1})  # np.unique would import numpy.ma
        self.stretches = list(zip(starts, starts[1:] + [nsteps + 1]))
        on = np.array(starts)[:, None] >= onset  # (stretch, channel): the channel is on
        self.levels = np.where(on, [s.amplitude if s.kind == "step" else 0.0 for s in specs], 0.0)
        self.bn = sys.B[:, white]
        self.scales = np.where(on[:, white], [np.sqrt(s.intensity * dt) for s in specs if s.is_stochastic], 0.0)
        self.dt = dt
        self.nsteps = nsteps
        self.times = np.arange(nsteps + 1) * dt

    @property
    def n_noise(self) -> int:
        return self.bn.shape[1]


class _Jumps:
    """The simulation engine: a batch of members, _JUMP nodes at a time.

    A sub-block is L = _JUMP nodes of one stretch of `_Prepared`, from
    the stretch's start or the end of the sub-block before.  Under the
    input u the stretch holds, node s + j of a path has the output

        y_{s+j} = C x_s + O_j x_s + c_j + sum_{i<j} C Phi^(j-1-i) bn w_{s+i}

    with O_j = C (Phi^j - I), F_j the forced response from x = 0,
    c_j = C F_j + D u and w_k the noise of the step that leaves node k,
    and the next sub-block starts from

        x_{s+L} = x_s + (Delta_L x_s + F_L) + sum_i Phi^(L-1-i) bn w_{s+i},

    Delta_L = Phi^L - I.  The noise sums of a path's sub-blocks are two
    products of its draws, with `markov`, the block-Toeplitz table of the
    C Phi^k bn, and with `inject`, the table of the Phi^k bn.  The tables
    hold O(L x states^2 + L^2 x noise channels x outputs) numbers, a run
    O(_CHUNK x paths x states) more.  Every product runs per path, so a
    path has the same bits whatever the other paths of its batch.  Every
    path runs under the one table of step levels, `_Prepared.levels`.

    Every chain runs on `_kernels.affine_path`: the sub-block starts with
    `jump` = Delta_L; with `delta` = Phi - I each level's F_j, a
    stretch's last fewer than L nodes, up to its end, and a path from the
    first sub-block of a run on which its bound on the states,
    g |x_s| + max_j |F_j| + g sum_i sum_c |bn_c| |w_{s+i,c}| (infinity
    norms, g = max(1, |Phi|)^L, bn_c column c of bn), is not below
    DIVERGENCE_LIMIT, so a divergence is reported at the node stepping
    finds.
    """

    def __init__(self, prep: _Prepared):
        self.prep = prep
        C, bn, L = prep.C, prep.bn, _JUMP
        self.phi, gamma, delta = rk4_transition(prep.A, prep.dt)
        self.gb = gamma @ prep.B
        # O_{j+1} = O_j + (C + O_j) Delta; row block 0 holds C itself
        stack = np.empty((L, *C.shape))
        stack[0] = C
        stack[1] = C @ delta
        for j in range(1, L - 1):
            stack[j + 1] = stack[j] + (C + stack[j]) @ delta
        self.stack = stack.reshape(-1, C.shape[1]).T
        self.delta = self.jump = delta  # Phi - I steps, Phi^L - I jumps
        for _ in range(L.bit_length() - 1):  # (Phi^m)^2 - I = 2 Delta_m + Delta_m^2
            self.jump = self.jump @ self.jump + 2.0 * self.jump
        # |x_s| growth + max_j |F_j| bounds the states of the L steps after x_s
        self.growth = max(1.0, float(np.abs(self.phi).sum(axis=1).max())) ** L
        # row block i of inject is (Phi^(L-1-i) bn)'; block (i, j) of
        # markov is (C Phi^(j-1-i) bn)' for i < j and zero otherwise
        (n, nn), nu = bn.shape, C.shape[0]
        powers = np.empty((L, n, nn))
        powers[0] = bn
        for k in range(1, L):
            powers[k] = self.phi @ powers[k - 1]
        self.inject = powers[::-1].transpose(0, 2, 1).reshape(L * nn, n)
        outputs = np.matmul(C, powers)
        markov = np.zeros((L, nn, L, nu))
        for j in range(1, L):
            for i in range(j):
                markov[i, :, j] = outputs[j - 1 - i].T
        self.markov = markov.reshape(L * nn, L * nu)
        # |Phi^k bn w| <= growth sum_c |bn_c| |w_c|: a sub-block's noise
        # bound is its draws' magnitudes times this row
        self.noise_bound = np.tile(self.growth * np.abs(bn).max(axis=0, initial=0.0), L)
        self.terms = [self._level(u) for u in prep.levels]  # of each stretch

    def _level(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(F_L, c, max_j |F_j|) of the input level u."""
        p = self.prep
        forced = np.zeros((_JUMP + 1, 1, self.phi.shape[0]))
        forced[1:] = self.gb @ u
        _kernels.affine_path(self.delta, forced)
        forced = forced[:, 0]
        c = forced[:_JUMP] @ p.C.T + p.Dmat @ u
        return forced[_JUMP], c, float(np.abs(forced).max())

    def run(self, seed: int | None, members: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
        """Outputs of the members `members` of master seed `seed`, up to
        _CHUNK nodes at a time.  Without noise channels a member is the
        run's one noise-free path.

        Yields (s, y) with y[i, j] the outputs of member members[i] at
        node s + j.  Raises SimulationDiverged at the first node at which
        a state magnitude of any member reaches DIVERGENCE_LIMIT.
        """
        members = list(members)
        p, L, P, nn = self.prep, _JUMP, len(members), self.prep.n_noise
        rngs = [np.random.Generator(np.random.Philox(member_seed(seed, r))) for r in members] if nn else []
        x = np.empty((_CHUNK // L + 1, P, self.phi.shape[0]))  # sub-block starts
        x[0] = p.x0
        w = np.empty((P, _CHUNK * nn))  # a member's draws, node after node
        for v, (s, end) in enumerate(p.stretches):
            scale = np.tile(p.scales[v], _CHUNK)
            while s < end:
                r = min((end - s) // L, _CHUNK // L)  # whole sub-blocks
                m = r * L or min(end, p.nsteps) - s  # steps, leaving nodes s .. s + m - 1
                for wr, rng in zip(w, rngs):
                    rng.standard_normal(out=wr[:m * nn])
                w[:, :m * nn] *= scale[:m * nn]
                noise = w[:, :m * nn].reshape(P, m, nn)
                if r:
                    y = self._jump(s, r, v, x, noise)
                else:
                    y, x[0] = self._step(s, m, end - s, np.arange(P), x[0], noise, v)
                yield s, y
                s += y.shape[1]

    def _jump(self, s, r, v, x, w) -> np.ndarray:
        """Outputs of every path over the r sub-blocks from node s, all
        under the input level of stretch v, from the states x[0] and the
        draws w; leaves the states of node s + r L in x[0].  A path is
        stepped from the first sub-block whose bound fails on."""
        p, L = self.prep, _JUMP
        P, nu = x.shape[1], p.C.shape[0]
        drive, c, reach = self.terms[v]
        x[1:r + 1] = drive  # the drives of the sub-block starts
        bound = np.full((P, r), reach)  # a sub-block's bound on its states, less g |x_s|
        with np.errstate(all="ignore"):
            if p.n_noise:
                wb = w.reshape(P, r, -1)  # row i: a path's draws of sub-block i
                x[1:r + 1] += (wb @ self.inject).transpose(1, 0, 2)
            _kernels.affine_path(self.jump, x[:r + 1])
            y = np.matmul(x[:r].transpose(1, 0, 2), self.stack).reshape(P, r, L, nu)
            y[:, :, 1:] += y[:, :, :1]
            y += c
            if p.n_noise:
                y += (wb @ self.markov).reshape(P, r, L, nu)
                bound += np.abs(wb) @ self.noise_bound
            ok = np.abs(x[:r]).max(axis=2).T * self.growth + bound < DIVERGENCE_LIMIT  # (path, sub-block)
        y = y.reshape(P, r * L, nu)
        if not ok.all():
            times = []  # of the paths that diverge; the earliest is reported
            cut = np.where(ok.all(axis=1), r, np.argmin(ok, axis=1))  # a path's first failed sub-block
            for i in sorted(set(cut[cut < r].tolist())):
                paths, m = np.flatnonzero(cut == i), (r - i) * L
                try:
                    y[paths, i * L:], x[r, paths] = self._step(s + i * L, m, m, paths, x[i, paths], w[:, i * L:], v)
                except SimulationDiverged as err:
                    times.append(err.time)
            if times:
                raise SimulationDiverged(min(times))
        x[0] = x[r]
        return y

    def _step(self, s, m, rows, paths, x, w, v):
        """Steps the paths `paths` m steps from their states x at node s,
        all under the input level of stretch v; returns their outputs at
        nodes s .. s + rows - 1 and their states at node s + m.  w[paths,
        :m] are the draws of the steps.  Raises SimulationDiverged at the
        first node at which a state magnitude reaches DIVERGENCE_LIMIT."""
        p = self.prep
        path = np.empty((m + 1, paths.size, x.shape[1]))
        path[0] = x
        path[1:] = self.gb @ p.levels[v]
        if p.n_noise:
            path[1:] += (w[paths, :m] @ p.bn.T).transpose(1, 0, 2)
        _kernels.affine_path(self.delta, path)
        blow = np.flatnonzero(~(np.abs(path[1:]).max(axis=(1, 2)) < DIVERGENCE_LIMIT))
        if blow.size:
            raise SimulationDiverged((s + 1 + blow[0]) * p.dt)
        return path[:rows].transpose(1, 0, 2) @ p.C.T + p.Dmat @ p.levels[v], path[-1]


def _integrate_modes(prep: _Prepared, modal: ModalFactor, y: np.ndarray) -> bool:
    """Fills y with the outputs of the run, integrated mode by mode, and
    returns True; returns False at the first block whose states cannot
    be bounded below DIVERGENCE_LIMIT.

    Under x[order] = (M kron I_b) z (`ModalFactor`) mode k is the b-state
    RK4 system z <- Phi_k z + g_k with the output w_k = c_k z, and
    y = M w + D u.
    Over a block of up to _CHUNK nodes from node s under one input level,
    w_{s+j,k} = c_k Phi_k^j z_{s,k} + c_k f_{j,k}, f_j the forced response
    from z = 0, so one table of the c_k Phi_k^j (nagents x _CHUNK x b) and,
    per level, one of the c_k f_j give the block's outputs, and
    z_{s+m} = Phi^m z_s + f_m, taken by the binary powers of m, its end.
    The powers Phi^(2^i) are squares, the ends f_(2^i) doublings,
    f_2m = Phi^m f_m + f_m, of all modes at once.  No table holds more
    than O(nagents x _CHUNK x b) numbers per level.  Every j <= _CHUNK is
    a sum of distinct powers of two, so the states of a block are
    bounded by |M| G (|z_s| + sum_i max_k |f_(2^i),k|) (infinity norms,
    G = prod_i max(1, max_k |Phi_k^(2^i)|)).
    """
    A = modal.mode_blocks(modal.to_modes(prep.A))
    c = modal.mode_blocks((modal.inverse @ prep.C)[:, None])[:, 0]
    z = modal.to_modes(prep.x0[:, None])[:, :, 0]
    u = prep.levels
    phi, gamma, _ = rk4_transition(A, prep.dt)
    g = gamma @ modal.to_modes(prep.B @ u.T)  # (mode, state, level)
    nu, b, nl = g.shape
    bits = _CHUNK.bit_length()  # Phi^(2^i) and f_(2^i), i < bits, make any block
    powers = np.empty((bits, nu, b, b))
    ends = np.empty((bits, nu, b, nl))
    powers[0], ends[0] = phi, g
    with np.errstate(all="ignore"):
        for i in range(1, bits):  # Phi^2m = (Phi^m)^2, f_2m = Phi^m f_m + f_m
            np.matmul(powers[i - 1], powers[i - 1], out=powers[i])
            np.matmul(powers[i - 1], ends[i - 1], out=ends[i])
            ends[i] += ends[i - 1]
        # a NaN stays in the bound, which then fails
        growth = np.prod(np.maximum(1.0, np.abs(powers).sum(axis=3).max(axis=(1, 2))))
        reach = np.abs(ends).max(axis=(1, 2)).sum(axis=0)  # of each level
        out = np.empty((nu, _CHUNK, b))  # c_k Phi_k^j
        out[:, 0] = c
        for i in range(bits - 1):
            np.matmul(out[:, :1 << i], powers[i], out=out[:, 1 << i:2 << i])
        forced = np.zeros((nl, _CHUNK, nu))  # c_k f_j of each level
        np.cumsum((out[:, :-1] @ g).transpose(2, 1, 0), axis=1, out=forced[:, 1:])
        mix = modal.transform.T
        forced = forced @ mix + (u @ prep.Dmat.T)[:, None]  # y less the free response
        tnorm = float(np.abs(modal.transform).sum(axis=1).max())
        for v, (s, end) in enumerate(prep.stretches):
            while s < end:
                m = min(_CHUNK, end - s)
                if not tnorm * growth * (np.abs(z).max() + reach[v]) < DIVERGENCE_LIMIT:
                    return False
                np.matmul((out[:, :m] @ z[:, :, None])[:, :, 0].T, mix, out=y[s:s + m])
                y[s:s + m] += forced[v, :m]
                if s + m <= prep.nsteps:
                    for i in np.flatnonzero(m >> np.arange(bits) & 1):
                        z = (powers[i] @ z[:, :, None])[:, :, 0] + ends[i, :, :, v]
                s += m
    return True


def integrate(loop, d, n, y0, dt: float, T: float) -> Trajectory:
    """Deterministic RK4 run; white-noise specs are rejected.

    A loop with a modal factor is integrated mode by mode
    (`_integrate_modes`), any other by the jump engine as one noise-free
    path.  If a block of the modal path cannot be bounded below
    DIVERGENCE_LIMIT the run is redone by the jump engine, so that a
    divergence is reported at the node stepping finds."""
    prep = _Prepared(loop, d, n, y0, dt, T)
    if prep.n_noise > 0:
        raise ValueError("integrate handles deterministic signals only")
    y = np.empty((prep.nsteps + 1, loop.nagents))
    if loop.modal is None or not _integrate_modes(prep, loop.modal, y):
        for s, block in _Jumps(prep).run(None, [0]):
            y[s:s + block.shape[1]] = block[0]
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
    """Slope of the least-squares line through the points (t, v).  The
    sums are einsum's own loops: a threaded BLAS dot of a long vector
    can stall for milliseconds."""
    dt = t - t.mean()
    return float(np.einsum("i,i->", dt, v - v.mean()) / np.einsum("i,i->", dt, dt))


def run_ensemble(
    loop, d, n, y0, dt: float, T: float, seed: int, realizations: int,
    projection: np.ndarray, keep: int = 1,
) -> EnsembleStats:
    """Monte-Carlo ensemble of stochastic runs and their noise-free twin.

    Member r is driven by the stream member_seed(seed, r), so the
    statistics do not depend on evaluation order.  The members run in one
    batch of the jump engine.  The twin, the same run with every
    measurement channel at zero, is one `integrate` run before them; its
    final mean output is the reference.  Each block of grid nodes gives
    the two-pass mean and variance over the members of each node; only
    the whole paths of members 0..keep-1 are kept.  A divergence is
    reported at the earliest grid time at which the twin or a member
    crosses the limit, the earlier of the two runs' SimulationDiverged.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if not 1 <= keep <= realizations:
        raise ValueError("keep must be between 1 and the realization count")
    prep = _Prepared(loop, d, n, y0, dt, T)
    projection = np.asarray(projection, dtype=float).reshape(-1)
    if projection.size != loop.nagents:
        raise ValueError("projection length must equal the agent count")
    times = []  # of the runs that diverge; the earliest is reported
    try:  # before the members' arrays exist, so its outputs are never held with them
        reference = float(np.mean(integrate(loop, d, SignalSpec.zero(), y0, dt, T).outputs[-1]))
    except SimulationDiverged as err:
        times.append(err.time)
    npts = prep.nsteps + 1
    mean = np.empty(npts)
    variance = np.empty(npts)
    kept = np.empty((keep, npts, loop.nagents))
    try:
        for s, y in _Jumps(prep).run(seed, range(realizations)):
            nodes = slice(s, s + y.shape[1])
            kept[:, nodes] = y[:keep]
            # z[k, r]: member r's projection at node k, summed by einsum's own
            # loop, not BLAS, whose bits can depend on the row count; each
            # node's members are then reduced alike whatever the node count
            z = np.einsum("rkj,j->kr", y, projection, order="C")
            mean[nodes] = z.mean(axis=1)
            # the divisor of one member is 1, not 0: its variance is zero
            variance[nodes] = np.square(z - mean[nodes, None]).sum(axis=1) / max(realizations - 1, 1)
    except SimulationDiverged as err:
        times.append(err.time)
    if times:
        raise SimulationDiverged(min(times))
    return EnsembleStats(
        times=prep.times,
        count=realizations,
        mean=mean,
        variance=variance,
        finals=y[:, -1].copy(),
        reference=reference,
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
