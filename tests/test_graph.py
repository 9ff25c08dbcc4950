import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreelab.graph import (
    Graph,
    _connected_classes,
    adjacency,
    degrees,
    find_graphs_by_spectrum,
    is_connected,
    laplacian,
    modal_transform,
    normalized_adjacency,
    parse_graph_text,
    read_graph,
)
from helpers import format_graph_text

DART = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)])
DART_SPECTRUM = [
    1.0,
    (np.sqrt(33) - 3) / 12,
    0.0,
    -0.5,
    -(np.sqrt(33) + 3) / 12,
]


# connected graphs on n nodes up to isomorphism (OEIS A001349), n = 1..7
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853]


def adjn_spectrum(g):
    return np.sort(np.linalg.eigvals(normalized_adjacency(g)).real)


def pair_bits(n):
    """The search's mask layout: the pairs (0,1), (0,2), ..., (n-2,n-1)
    take bits 0, 1, ..."""
    rows, cols = np.triu_indices(n, 1)
    bit = np.zeros((n, n), dtype=np.int64)
    bit[rows, cols] = bit[cols, rows] = 1 << np.arange(rows.size)
    return bit


def edge_mask(g):
    bit = pair_bits(g.n)
    return int(sum(bit[i - 1, j - 1] for i, j in g.edges))


def orbit_min_mask(g):
    """The smallest edge mask of g over the n! relabellings of its nodes."""
    bit = pair_bits(g.n)
    perms = np.array(list(itertools.permutations(range(g.n))))
    i, j = (np.array(g.edge_list) - 1).T
    return int(bit[perms[:, i], perms[:, j]].sum(axis=1).min())


_BRUTE_BLOCK = 512


def brute_force_search(n, targets, tol=1e-9):
    """The oracle: the search as it was before vertex extension, one pass
    over every edge mask answering each target as one call answered it.

    Every one of the 2^(n(n-1)/2) masks is solved, _BRUTE_BLOCK with one
    batched eigvalsh; each connected match marks its whole orbit under the
    n! relabellings as seen and is reported by the orbit's smallest mask.
    """
    targets = [np.sort(np.asarray(t, dtype=float)) for t in targets]
    rows, cols = np.triu_indices(n, 1)
    bits = 1 << np.arange(rows.size)
    bit = pair_bits(n)
    perms = np.array(list(itertools.permutations(range(n))))
    image = bit[perms[:, rows], perms[:, cols]]  # where each relabelling sends each bit
    seen = np.zeros((len(targets), 1 << bits.size), dtype=bool)
    classes = [[] for _ in targets]
    for start in range(0, seen.shape[1], _BRUTE_BLOCK):
        masks = np.arange(start, min(start + _BRUTE_BLOCK, seen.shape[1]))
        A = (masks[:, None, None] & bit) != 0
        d = A.sum(axis=2)
        covered = np.all(d > 0, axis=1)
        masks, A, s = masks[covered], A[covered], 1.0 / np.sqrt(d[covered])
        spec = np.linalg.eigvalsh(A * (s[:, :, None] * s[:, None, :]))
        # without isolated nodes, connected iff the eigenvalue 1 is simple; at
        # n <= 7 a connected graph's gap 1 - spec[-2] is >= 2.8e-4 (Cheeger),
        # and 0.12 at its smallest
        connected = spec[:, -2] <= 1.0 - 1e-6
        for t, target in enumerate(targets):
            miss = np.max(np.abs(spec - target), axis=1) > tol
            for m in masks[connected & ~miss]:
                if not seen[t, m]:
                    orbit = np.where(m & bits, image, 0).sum(axis=1)
                    seen[t, orbit] = True
                    classes[t].append(orbit.min())
    return [
        [Graph(n, [(i + 1, j + 1) for i, j, b in zip(rows, cols, bits) if c & b]) for c in sorted(found)]
        for found in classes
    ]


def connected_spectra(n):
    """One representative of each distinct Adjn spectrum among the connected
    graphs on n nodes, from a batched solve of every edge mask."""
    bit = pair_bits(n)
    masks = np.arange(1 << (n * (n - 1) // 2))
    A = ((masks[:, None, None] & bit) != 0).astype(float)
    d = A.sum(axis=2)
    A, d = A[np.all(d > 0, axis=1)], d[np.all(d > 0, axis=1)]
    spec = np.linalg.eigvalsh(A / np.sqrt(d[:, :, None] * d[:, None, :]))
    spec = spec[spec[:, -2] <= 1.0 - 1e-6]
    _, first = np.unique(np.round(spec, 9), axis=0, return_index=True)
    return spec[np.sort(first)]


def random_connected_graph(rng, n, p=0.6):
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g) and np.all(degrees(g) >= 1):
            return g


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 4)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(1, 2), (2, 1), (1, 2)])
        assert len(g.edges) == 1

    def test_two_path_normalized_adjacency(self):
        g = Graph(2, [(1, 2)])
        assert np.allclose(normalized_adjacency(g), [[0.0, 1.0], [1.0, 0.0]])

    def test_pendant_row_is_basis_vector(self):
        adjn = normalized_adjacency(DART)
        assert np.allclose(adjn[4], [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_triangle_laplacian(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        J = np.ones((3, 3))
        assert np.allclose(laplacian(g), 2 * np.eye(3) - (J - np.eye(3)))

    def test_isolated_node_rejected(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="isolated"):
            normalized_adjacency(g)

    def test_row_stochastic(self):
        assert np.allclose(normalized_adjacency(DART).sum(axis=1), 1.0)

    def test_degree_matrix(self):
        assert np.allclose(np.diag(laplacian(DART)), [4, 3, 2, 2, 1])


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(Graph(3, [(1, 2), (1, 3), (2, 3)]))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(1, 2), (3, 4)]))

    def test_dart_connected(self):
        assert is_connected(DART)


class TestModalTransform:
    def test_two_path(self):
        md = modal_transform(Graph(2, [(1, 2)]))
        assert np.allclose(md.alphas, [1.0, -1.0])
        assert np.allclose(md.gamma, np.ones(2) / np.sqrt(2))

    def test_dart_spectrum(self):
        md = modal_transform(DART)
        assert np.allclose(md.alphas, DART_SPECTRUM, atol=1e-10)

    def test_dart_gamma(self):
        md = modal_transform(DART)
        assert np.allclose(md.gamma, np.array([4, 3, 2, 2, 1]) / np.sqrt(12))
        assert np.all(md.gamma > 0)

    def test_diagonalization_invariants(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4, 5, 6):
            g = random_connected_graph(rng, n)
            md = modal_transform(g)
            adjn = normalized_adjacency(g)
            diag = md.U @ adjn @ md.Uinv
            assert np.max(np.abs(diag - np.diag(md.alphas))) <= 1e-9
            assert np.all(np.diff(md.alphas) <= 0.0)  # descending
            assert np.max(np.abs(md.Uinv[:, 0] - 1.0)) <= 1e-9
            W = md.U / np.sqrt(degrees(g))[None, :]
            gram = W @ W.T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-9
            assert np.allclose(np.diag(gram)[1:], 1.0, atol=1e-9)
            assert md.gamma @ adjn == pytest.approx(md.gamma, abs=1e-9)

    def test_agreement_eigenvalue_simple(self):
        rng = np.random.default_rng(29)
        for n in (3, 4, 5, 6):
            g = random_connected_graph(rng, n)
            md = modal_transform(g)
            adjn = normalized_adjacency(g)
            assert np.linalg.norm(adjn @ np.ones(n) - np.ones(n)) <= 1e-12
            assert md.alphas[0] == pytest.approx(1.0, abs=1e-10)
            assert md.alphas[1] < 1.0 - 1e-9
            assert np.all(md.alphas >= -1.0 - 1e-12)

    def test_spectrum_matches_symmetric_similarity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            adjn = normalized_adjacency(g)
            ev = np.sort(np.linalg.eigvals(adjn).real)
            md = modal_transform(g)
            assert np.allclose(ev, np.sort(md.alphas), atol=1e-9)

    def test_bipartite_spectrum_symmetry(self):
        def is_bipartite(g):
            color = {1: 0}
            stack = [1]
            adj = {i: [] for i in range(1, g.n + 1)}
            for a, b in g.edges:
                adj[a].append(b)
                adj[b].append(a)
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return False
            return True

        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            md = modal_transform(g)
            symmetric = np.allclose(np.sort(md.alphas), np.sort(-md.alphas), atol=1e-9)
            assert symmetric == is_bipartite(g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            modal_transform(Graph(4, [(1, 2), (3, 4)]))

    def test_single_node_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="isolated node"):
            modal_transform(Graph(1, []))


class TestSpectrumSearch:
    def test_single_edge(self):
        found = find_graphs_by_spectrum(2, [1.0, -1.0])
        assert len(found) == 1
        assert found[0].edge_list == [(1, 2)]

    def test_triangle(self):
        found = find_graphs_by_spectrum(3, [1.0, -0.5, -0.5])
        assert len(found) == 1
        assert len(found[0].edges) == 3

    def test_dart_is_unique_match(self):
        found = find_graphs_by_spectrum(5, DART_SPECTRUM)
        assert len(found) == 1
        g = found[0]
        assert sorted(degrees(g).tolist(), reverse=True) == [4, 3, 2, 2, 1]
        # moment oracle for the recovered topology
        adjn = normalized_adjacency(g)
        assert np.trace(adjn @ adjn) == pytest.approx(11.0 / 6.0, abs=1e-12)
        assert np.trace(adjn @ adjn @ adjn) == pytest.approx(0.5, abs=1e-12)

    def test_dart_structure(self):
        # K4 minus one edge plus a pendant on a degree-3 vertex, ordered
        # by descending degree
        found = find_graphs_by_spectrum(5, DART_SPECTRUM)
        g = found[0]
        md = modal_transform(g)
        assert np.allclose(np.sort(md.alphas), np.sort(DART_SPECTRUM), atol=1e-10)

    def test_no_match_returns_empty(self):
        assert find_graphs_by_spectrum(3, [1.0, 0.3, -0.9]) == []

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            find_graphs_by_spectrum(9, [0.0] * 9)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            find_graphs_by_spectrum(0, [])

    @pytest.mark.parametrize(
        "target",
        [[np.nan, 0.0, 0.0, 0.0], [1.0, np.inf, -0.5, -0.5]],
        ids=["nan-target", "inf-target"],
    )
    def test_nonfinite_target_or_bad_tol_rejected(self, target):
        # a NaN deviation never exceeds the tolerance, so it used to match every class
        with pytest.raises(ValueError, match="finite"):
            find_graphs_by_spectrum(4, target)

    def test_single_node_matches_nothing(self):
        # the one node is isolated, so Adjn is undefined
        assert find_graphs_by_spectrum(1, [1.0]) == []

    def test_matches_dfs_filtered_enumeration(self):
        # every distinct spectrum of a graph without isolated nodes at
        # n <= 5, connected or not, against a search that keeps only the
        # graphs a depth-first search reaches in full
        def connected(n, edges):
            seen, stack = {0}, [0]
            while stack:
                v = stack.pop()
                for i, j in edges:
                    for a, b in ((i, j), (j, i)):
                        if a == v and b not in seen:
                            seen.add(b)
                            stack.append(b)
            return len(seen) == n

        def canonical(n, edges):
            return min(
                tuple(sorted(tuple(sorted((p[i], p[j]))) for i, j in edges))
                for p in itertools.permutations(range(n))
            )

        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            graphs = []
            for mask in range(1 << len(pairs)):
                edges = [pr for b, pr in enumerate(pairs) if mask >> b & 1]
                if len({v for e in edges for v in e}) < n:
                    continue
                adjn = normalized_adjacency(Graph(n, [(i + 1, j + 1) for i, j in edges]))
                spec = np.sort(np.linalg.eigvals(adjn).real)
                graphs.append((spec, connected(n, edges), canonical(n, edges)))
            targets = {tuple(np.round(spec, 9)): spec for spec, _, _ in graphs}
            for spec in targets.values():
                expected = {
                    c for sp, conn, c in graphs
                    if conn and np.max(np.abs(sp - spec)) <= 1e-9
                }
                found = find_graphs_by_spectrum(n, spec)
                got = [canonical(n, [(i - 1, j - 1) for i, j in g.edges]) for g in found]
                assert len(got) == len(set(got))
                assert set(got) == expected, (n, spec)

    def test_two_disjoint_edges_match_nothing(self):
        assert find_graphs_by_spectrum(4, [1.0, 1.0, -1.0, -1.0]) == []

    def test_matches_are_complete_at_six_nodes(self):
        # every labelled 6-node mask, solved one at a time: the classes found
        # must account for all masks with the target spectrum, 6!/|Aut(g)|
        # labellings each
        n = 6
        perms = list(itertools.permutations(range(n)))
        pairs = list(itertools.combinations(range(n), 2))

        def relabelled(edges, p):
            return tuple(sorted(tuple(sorted((p[i], p[j]))) for i, j in edges))

        def canonical(edges):
            return min(relabelled(edges, p) for p in perms)

        def automorphisms(edges):
            edges = relabelled(edges, range(n))
            return sum(relabelled(edges, p) == edges for p in perms)

        spectra = []
        for mask in range(1 << len(pairs)):
            g = Graph(n, [(i + 1, j + 1) for b, (i, j) in enumerate(pairs) if mask >> b & 1])
            if is_connected(g):
                spectra.append(np.sort(np.linalg.eigvals(normalized_adjacency(g)).real))
        spectra = np.array(spectra)

        rng = np.random.default_rng(61)
        sources = [random_connected_graph(rng, n) for _ in range(2)]
        # K_{3,3}, cospectral with K_{1,5} and K_{2,4}, and a cospectral pair
        sources.append(Graph(n, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]))
        sources.append(Graph(n, [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5)]))
        counts = []
        for source in sources:
            target = np.sort(np.linalg.eigvals(normalized_adjacency(source)).real)
            found = find_graphs_by_spectrum(n, target)
            forms = [canonical([(i - 1, j - 1) for i, j in g.edges]) for g in found]
            assert canonical([(i - 1, j - 1) for i, j in source.edges]) in forms
            assert len(set(forms)) == len(forms)
            labelled = int(np.sum(np.max(np.abs(spectra - target), axis=1) <= 1e-9))
            assert sum(len(perms) // automorphisms(f) for f in forms) == labelled
            counts.append(len(found))
        assert counts[2:] == [3, 2]

    def test_nine_nodes_rejected_before_enumerating(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(np.linalg, "eigvalsh", enumerated)
        monkeypatch.setattr("agreelab.graph._extend", enumerated)
        with pytest.raises(ValueError, match="n = 8"):
            find_graphs_by_spectrum(9, [0.0] * 9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force_at_every_spectrum(self, n):
        targets = connected_spectra(n)
        expected = brute_force_search(n, targets)
        for target, graphs in zip(targets, expected):
            assert find_graphs_by_spectrum(n, target) == graphs, (n, target)
        # every class matches its own spectrum
        assert len({g for graphs in expected for g in graphs}) == CONNECTED_CLASSES[n - 1]

    def test_dart_matches_brute_force(self):
        expected = brute_force_search(5, [DART_SPECTRUM])[0]
        assert find_graphs_by_spectrum(5, DART_SPECTRUM) == expected

    def test_class_counts(self):
        # the 11,117 classes at n = 8 take ~18 s (all 108,331 candidates
        # canonicalised by the 8! scan), so they are not counted here
        counts = [len(_connected_classes(n)) for n in range(1, 8)]
        assert counts == CONNECTED_CLASSES

    @pytest.mark.parametrize("n, p, seed", [(7, 0.35, 71), (7, 0.65, 72), (8, 0.35, 81), (8, 0.65, 82)])
    def test_random_graph_found_by_its_spectrum(self, n, p, seed):
        source = random_connected_graph(np.random.default_rng(seed), n, p)
        target = adjn_spectrum(source)
        found = find_graphs_by_spectrum(n, target)
        # each match is labelled by its orbit's smallest mask, ascending
        masks = [edge_mask(g) for g in found]
        assert masks == sorted(set(masks))
        assert masks == [orbit_min_mask(g) for g in found]
        assert orbit_min_mask(source) in masks
        for g in found:
            assert np.max(np.abs(adjn_spectrum(g) - target)) <= 1e-9

    def test_eight_node_search_memory(self):
        # blocks of _orbit_min and eigvalsh bound the peak; measured 12.6 MB,
        # of which 9.0 MB is the float image of the 28 bits under 8! relabellings
        target = adjn_spectrum(random_connected_graph(np.random.default_rng(83), 8, 0.5))
        find_graphs_by_spectrum(5, DART_SPECTRUM)  # first-call imports are not the search's memory
        tracemalloc.start()
        try:
            found = find_graphs_by_spectrum(8, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found
        assert peak < 16 * 2**20


class TestGraphText:
    def test_format(self):
        text = "# comment\nn 3\n\ne 2 3\ne 1 2\n"
        assert parse_graph_text(text) == Graph(3, [(1, 2), (2, 3)])
        assert format_graph_text(Graph(3, [(2, 3), (1, 2)])) == "n 3\ne 1 2\ne 2 3\n"

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(format_graph_text(DART))
        first = path.read_bytes()
        g = read_graph(path)
        path.write_text(format_graph_text(g))
        assert path.read_bytes() == first
        assert g == DART

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="node count"):
            parse_graph_text("e 1 2\n")
        with pytest.raises(ValueError, match="unrecognized"):
            parse_graph_text("n 2\nx 1 2\n")
        with pytest.raises(ValueError, match="^line 3: expected an integer, got 'x'$"):
            parse_graph_text("n 3\ne 1 2\ne 2 x\n")
        with pytest.raises(ValueError, match="^line 1: expected an integer, got '3.5'$"):
            parse_graph_text("n 3.5\n")

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random(self, n, rnd):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [p for p in pairs if rnd.random() < 0.5]
        g = Graph(n, edges)
        assert parse_graph_text(format_graph_text(g)) == g
