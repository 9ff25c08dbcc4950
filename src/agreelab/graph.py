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

__all__ = [
    "Graph",
    "ModalData",
    "adjacency",
    "degrees",
    "laplacian",
    "normalized_adjacency",
    "is_connected",
    "modal_transform",
    "find_graphs_by_spectrum",
    "parse_graph_text",
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


def laplacian(g: Graph) -> np.ndarray:
    return np.diag(degrees(g)) - adjacency(g)


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
    # eigenvalues descending; S is symmetric by construction
    w, V = np.linalg.eigh(S)
    w, V = w[::-1], V[:, ::-1]
    total = float(np.sum(d))
    # scale the alpha=1 eigenvector so that U^{-1} e1 becomes all-ones
    U = V.T * np.sqrt(d)[None, :]
    Uinv = dinv_half[:, None] * V
    c = Uinv[0, 0]
    if c == 0.0:
        raise ValueError("degenerate agreement eigenvector")
    # the Perron column of alpha_1 = 1 is positive up to a sign, which
    # the division by c cancels
    Uinv[:, 0] /= c
    U[0, :] *= c
    gamma = d / np.sqrt(total)
    for m in (w, U, Uinv, gamma):
        m.setflags(write=False)
    return ModalData(alphas=w, U=U, Uinv=Uinv, gamma=gamma)


# -- spectrum-based graph recovery -------------------------------------


# candidates solved per batched eigvalsh call
_BLOCK = 512
# largest deviation of a match from the target, per eigenvalue
_SPECTRUM_TOL = 1e-9
# relabelled masks formed per block of _orbit_min: 2 MB of float64, so an
# n = 8 block is 6 masks against the 40,320 relabellings
_IMAGES = 1 << 18


def _pair_bits(n: int) -> np.ndarray:
    """bit[i, j]: the mask bit of the pair {i, j} on n nodes, 0 on the
    diagonal; the pairs (0,1), (0,2), ..., (n-2,n-1) take bits 0, 1, ..."""
    rows, cols = np.triu_indices(n, 1)
    bit = np.zeros((n, n), dtype=np.int64)
    bit[rows, cols] = bit[cols, rows] = 1 << np.arange(rows.size)
    return bit


def _extend(masks: np.ndarray, m: int) -> np.ndarray:
    """Masks on m + 1 nodes: every graph of masks (on m nodes) with node m
    joined to every nonempty subset of the others, graph-major."""
    old, new = _pair_bits(m), _pair_bits(m + 1)
    rows, cols = np.triu_indices(m, 1)
    lifted = ((masks[:, None] & old[rows, cols]) != 0) @ new[rows, cols]
    subsets = np.arange(1, 1 << m)
    joins = ((subsets[:, None] >> np.arange(m)) & 1) @ new[:m, m]
    return (lifted[:, None] | joins).ravel()


def _orbit_min(masks: np.ndarray, n: int) -> np.ndarray:
    """Each mask's smallest image under the n! relabellings of its nodes."""
    rows, cols = np.triu_indices(n, 1)
    bit = _pair_bits(n)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    # image[b, p]: where relabelling p sends bit b; every sum of distinct
    # bits is below 2^53, so the float product is exact
    image = bit.astype(float)[perms[:, rows], perms[:, cols]].T
    step = max(1, _IMAGES // len(perms))
    out = np.empty_like(masks)
    for s in range(0, masks.size, step):
        has = (masks[s:s + step, None] & bit[rows, cols]) != 0
        out[s:s + step] = (has @ image).min(axis=1)
    return out


def _distinct(masks: np.ndarray) -> np.ndarray:
    """The distinct masks, ascending; np.unique imports numpy.ma on first
    use, which costs a fresh process ~20 ms and 1 MB."""
    masks = np.sort(masks)
    return masks[np.diff(masks, prepend=-1) != 0]


def _connected_classes(n: int) -> np.ndarray:
    """The orbit-minimum masks of the connected graphs on n nodes, one per
    isomorphism class, ascending: each level's classes extended by a node
    and deduplicated by their orbit minima."""
    masks = np.zeros(1, dtype=np.int64)  # the single node
    for m in range(1, n):
        masks = _distinct(_orbit_min(_extend(masks, m), m + 1))
    return masks


def find_graphs_by_spectrum(n: int, target: Sequence[float]) -> list[Graph]:
    """All connected graphs on n nodes (one per isomorphism class) whose
    Adjn spectrum matches the sorted target within 1e-9 per eigenvalue.

    Vertex extension: a leaf of a spanning tree is never a cut vertex, so
    every connected graph on n nodes is a connected graph on n - 1 nodes
    plus a node joined to a nonempty subset of them.  The classes on
    n - 1 nodes are built that way level by level from the single node,
    each kept by the smallest edge mask of its orbit under the relabellings
    (_connected_classes).  Their extensions, the candidates, are solved
    _BLOCK at a time with one batched eigvalsh each, and only the matches
    are canonicalised; the result is one graph per matching class, labelled
    by that orbit-minimum mask and in ascending mask order.

    n is capped at 8.  On a 2-CPU Xeon with Python 3.11 and numpy 2.4,
    n = 5 takes ~2 ms, n = 6 ~5 ms, n = 7 0.04-0.14 s (112 x 63 candidates)
    and n = 8 ~0.9 s (853 x 127 candidates, ~0.75 s of it in eigvalsh),
    with tracemalloc peaks of 0.06, 0.4, 2.2 and 12.5 MB.  n = 9 would
    first build the 11,117 classes on 8 nodes, ~18 s of 8! scans, and
    then canonicalise its matches against the 9! relabellings; it needs a
    cheaper canonical form, such as colour refinement or canonical
    augmentation (McKay, J. Algorithms 1998).  The target must be finite.
    """
    if n < 1:
        raise ValueError("graph needs at least one node")
    if n > 8:
        raise ValueError("enumeration supported only up to n = 8")
    target = np.sort(np.asarray(target, dtype=float))
    if target.size != n:
        raise ValueError("target spectrum must have n entries")
    # a NaN deviation compares false, so a NaN would match anything
    if not np.all(np.isfinite(target)):
        raise ValueError("target spectrum must be finite")
    if n == 1:
        return []  # the single node is isolated
    candidates = _extend(_connected_classes(n - 1), n - 1)
    bit = _pair_bits(n)
    matches = []
    for start in range(0, candidates.size, _BLOCK):
        masks = candidates[start:start + _BLOCK]
        A = (masks[:, None, None] & bit) != 0
        s = 1.0 / np.sqrt(A.sum(axis=2))
        spec = np.linalg.eigvalsh(A * (s[:, :, None] * s[:, None, :]))
        matches.append(masks[np.max(np.abs(spec - target), axis=1) <= _SPECTRUM_TOL])
    rows, cols = np.triu_indices(n, 1)
    return [
        Graph(n, [(i + 1, j + 1) for i, j in zip(rows, cols) if c & bit[i, j]])
        for c in _distinct(_orbit_min(np.concatenate(matches), n))
    ]


# -- text format --------------------------------------------------------


def _integer(token: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {ln}: expected an integer, got {token!r}") from None


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
            n = _integer(parts[1], ln)
        elif parts[0] == "e" and len(parts) == 3:
            if n is None:
                raise ValueError(f"line {ln}: edge before node count")
            edges.append((_integer(parts[1], ln), _integer(parts[2], ln)))
        else:
            raise ValueError(f"line {ln}: unrecognized graph line {line!r}")
    if n is None:
        raise ValueError("missing node-count line")
    return Graph(n, edges)


def read_graph(path: str | Path) -> Graph:
    return parse_graph_text(Path(path).read_text())
