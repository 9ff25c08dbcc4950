"""Comparison and file-writing helpers shared by the tests."""

import numpy as np

from agreelab.graph import Graph
from agreelab.lti import RationalTF


def approx_equal(a, b, rtol: float = 1e-9) -> bool:
    """Coefficient equality of two polynomials relative to their largest
    coefficient; two rational functions compare as num1*den2 == num2*den1."""
    if isinstance(a, RationalTF):
        return approx_equal(a.num * b.den, b.num * a.den, rtol)
    n = max(a.coeffs.size, b.coeffs.size)
    x = np.zeros(n)
    y = np.zeros(n)
    x[: a.coeffs.size] = a.coeffs
    y[: b.coeffs.size] = b.coeffs
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1e-300)
    return bool(np.max(np.abs(x - y)) <= rtol * scale)


def format_graph_text(g: Graph) -> str:
    """The graph-file text that agreelab.graph.read_graph parses."""
    lines = [f"n {g.n}"]
    lines += [f"e {i} {j}" for i, j in g.edge_list]
    return "\n".join(lines) + "\n"
