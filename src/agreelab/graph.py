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
    "write_graph",
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

    def neighbors(self, i: int) -> list[int]:
        out = [b if a == i else a for a, b in self.edges if i in (a, b)]
        return sorted(out)


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


def _spectrum(n: int, edge_mask: int, pairs: list[tuple[int, int]]) -> np.ndarray | None:
    A = np.zeros((n, n))
    for b, (i, j) in enumerate(pairs):
        if edge_mask >> b & 1:
            A[i, j] = A[j, i] = 1.0
    d = A.sum(axis=1)
    if np.any(d < 1):
        return None
    s = 1.0 / np.sqrt(d)
    return np.linalg.eigvalsh(A * np.outer(s, s))


def _canonical_mask(n: int, edge_mask: int, pairs: list[tuple[int, int]]) -> int:
    index = {p: b for b, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(n)):
        m = 0
        for b, (i, j) in enumerate(pairs):
            if edge_mask >> b & 1:
                a, c = perm[i], perm[j]
                m |= 1 << index[(min(a, c), max(a, c))]
        if best is None or m < best:
            best = m
    return best


def find_graphs_by_spectrum(
    n: int, target: Sequence[float], tol: float = 1e-9
) -> list[Graph]:
    """All connected graphs on n nodes (one per isomorphism class) whose
    Adjn spectrum matches the sorted target within tol per eigenvalue.

    Brute-force over all 2^(n(n-1)/2) edge subsets, with an n! permutation
    scan per match, so n is capped at 7: on a 2-CPU Xeon with Python 3.11,
    n = 6 takes ~3 s and n = 7 210-400 s, and n = 8 (128x the subsets, 8x
    the permutations per match) would take hours.
    """
    if n > 7:
        raise ValueError("enumeration supported only up to n = 7")
    target = np.sort(np.asarray(target, dtype=float))
    if target.size != n:
        raise ValueError("target spectrum must have n entries")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    matches: dict[int, Graph] = {}
    for mask in range(1 << len(pairs)):
        spec = _spectrum(n, mask, pairs)
        # without isolated nodes, connected iff the eigenvalue 1 is simple; at
        # n <= 7 a connected graph's gap 1 - spec[-2] is >= 2.8e-4 (Cheeger),
        # and 0.12 at its smallest
        if spec is None or spec[-2] > 1.0 - 1e-6:
            continue
        if np.max(np.abs(np.sort(spec) - target)) > tol:
            continue
        canon = _canonical_mask(n, mask, pairs)
        if canon not in matches:
            edges = [
                (i + 1, j + 1)
                for b, (i, j) in enumerate(pairs)
                if canon >> b & 1
            ]
            matches[canon] = Graph(n, edges)
    return [matches[k] for k in sorted(matches)]


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


def write_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_graph_text(g))
