"""Simple undirected graphs and their normalized-adjacency spectra.

The modal transform diagonalizes Adjn = D^{-1} A through its symmetric
similarity D^{-1/2} A D^{-1/2}.  The row of U belonging to the
eigenvalue 1 is scaled so that U^{-1} e1 is the all-ones vector, which
makes the first modal coordinate the (degree-weighted) agreement
variable; the remaining rows keep unit length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .numerics import sym_eig

__all__ = [
    "Graph",
    "ModalData",
    "adjacency",
    "degree_matrix",
    "degrees",
    "laplacian",
    "normalized_adjacency",
    "is_connected",
    "modal_transform",
    "find_graphs_by_spectrum",
    "parse_graph_text",
    "format_graph_text",
    "read_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; nodes are 1..n, edges unordered pairs."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one node")
        norm = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) outside 1..{n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def adjacency(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for i, j in g.edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    return A


def degrees(g: Graph) -> np.ndarray:
    return adjacency(g).sum(axis=1)


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(degrees(g))


def laplacian(g: Graph) -> np.ndarray:
    return degree_matrix(g) - adjacency(g)


def normalized_adjacency(g: Graph) -> np.ndarray:
    d = degrees(g)
    if np.any(d < 1):
        raise ValueError("normalized adjacency undefined: isolated node present")
    return adjacency(g) / d[:, None]


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    adj = {i: [] for i in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@dataclass(frozen=True)
class ModalData:
    """Spectral data of Adjn: eigenvalues with the agreement mode first,
    the modal transform U (U Adjn U^{-1} diagonal, U^{-1} e1 = ones) and
    the positive left eigenvector gamma of the eigenvalue 1."""

    alphas: np.ndarray
    U: np.ndarray
    Uinv: np.ndarray
    gamma: np.ndarray


def modal_transform(g: Graph) -> ModalData:
    if not is_connected(g):
        raise ValueError("modal transform requires a connected graph")
    d = degrees(g)
    if np.any(d < 1):
        raise ValueError("modal transform undefined: isolated node present")
    A = adjacency(g)
    dinv_half = 1.0 / np.sqrt(d)
    S = A * np.outer(dinv_half, dinv_half)
    w, V = sym_eig(S)
    # The Perron column belongs to alpha_1 = 1 and is strictly positive
    # up to sign; sym_eig already fixed the sign convention.
    V = V.copy()
    total = float(np.sum(d))
    # scale the alpha=1 eigenvector so that U^{-1} e1 becomes all-ones
    U = V.T * np.sqrt(d)[None, :]
    Uinv = dinv_half[:, None] * V
    c = Uinv[0, 0]
    if c == 0.0:
        raise ValueError("degenerate agreement eigenvector")
    Uinv[:, 0] /= c
    U[0, :] *= c
    gamma = d / np.sqrt(total)
    for m in (w, U, Uinv, gamma):
        m.setflags(write=False)
    return ModalData(alphas=w, U=U, Uinv=Uinv, gamma=gamma)


# -- spectrum-based graph recovery -------------------------------------


# masks built and solved per batched eigvalsh call; at n = 6 a block of 4096
# adds 3.7 MB of peak memory against 0.25 MB at 512, and is no faster
_BLOCK = 512


def find_graphs_by_spectrum(
    n: int, target: Sequence[float], tol: float = 1e-9
) -> list[Graph]:
    """All connected graphs on n nodes (one per isomorphism class) whose
    Adjn spectrum matches the sorted target within tol per eigenvalue.

    Brute force over all 2^(n(n-1)/2) edge masks, solved in blocks of
    _BLOCK with one batched eigvalsh each; every match marks its whole
    orbit under the n! relabellings as seen and is reported by the
    orbit's smallest mask.  n is capped at 7: on a 2-CPU Xeon with
    Python 3.11 and numpy 2.4, n = 6 takes ~0.1 s and n = 7 ~11 s, and
    n = 8 has 128x the masks, ~23 min by extrapolation.  The target must
    be finite and tol finite and nonnegative.
    """
    if n < 1:
        raise ValueError("graph needs at least one node")
    if n > 7:
        raise ValueError("enumeration supported only up to n = 7")
    target = np.sort(np.asarray(target, dtype=float))
    if target.size != n:
        raise ValueError("target spectrum must have n entries")
    # a NaN deviation compares false with tol, so a NaN would match anything
    if not np.all(np.isfinite(target)):
        raise ValueError("target spectrum must be finite")
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and nonnegative")
    if n == 1:
        return []  # the single node is isolated
    rows, cols = np.triu_indices(n, 1)
    bits = 1 << np.arange(rows.size)
    bit = np.zeros((n, n), dtype=np.int64)
    bit[rows, cols] = bit[cols, rows] = bits
    perms = np.array(list(itertools.permutations(range(n))))
    image = bit[perms[:, rows], perms[:, cols]]  # where each relabelling sends each bit
    seen = np.zeros(1 << bits.size, dtype=bool)
    classes = []
    for start in range(0, seen.size, _BLOCK):
        masks = np.arange(start, min(start + _BLOCK, seen.size))
        A = (masks[:, None, None] & bit) != 0
        d = A.sum(axis=2)
        covered = np.all(d > 0, axis=1)
        masks, A, s = masks[covered], A[covered], 1.0 / np.sqrt(d[covered])
        spec = np.linalg.eigvalsh(A * (s[:, :, None] * s[:, None, :]))
        # without isolated nodes, connected iff the eigenvalue 1 is simple; at
        # n <= 7 a connected graph's gap 1 - spec[-2] is >= 2.8e-4 (Cheeger),
        # and 0.12 at its smallest
        miss = np.max(np.abs(spec - target), axis=1) > tol
        for m in masks[(spec[:, -2] <= 1.0 - 1e-6) & ~miss]:
            if not seen[m]:
                orbit = np.where(m & bits, image, 0).sum(axis=1)
                seen[orbit] = True
                classes.append(orbit.min())
    return [
        Graph(n, [(i + 1, j + 1) for i, j, b in zip(rows, cols, bits) if c & b])
        for c in sorted(classes)
    ]


# -- text format --------------------------------------------------------


def format_graph_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {i} {j}" for i, j in g.edge_list]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    n = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            if n is not None:
                raise ValueError(f"line {ln}: duplicate node-count line")
            n = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            if n is None:
                raise ValueError(f"line {ln}: edge before node count")
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"line {ln}: unrecognized graph line {line!r}")
    if n is None:
        raise ValueError("missing node-count line")
    return Graph(n, edges)


def read_graph(path: str | Path) -> Graph:
    return parse_graph_text(Path(path).read_text())
