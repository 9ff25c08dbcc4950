"""Hot time-stepping kernels.

The integrators reduce an LTI step to an affine state update
``x <- phi x + g_k (+ noise)``, so the inner loop is a dense
matrix-vector product repeated for every grid step.  The kernels are
plain numpy; ``sim`` looks them up here at call time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affine_path", "affine_path_noise"]


def affine_path(phi, g, x0, limit):
    """States of x_{k+1} = phi x_k + g_k at all nodes.

    Returns (states (nsteps+1, n), blow_index); blow_index is -1 unless
    some state magnitude crossed `limit`, in which case it is the first
    offending node index and later rows are unspecified.
    """
    nsteps = g.shape[0]
    n = x0.shape[0]
    out = np.empty((nsteps + 1, n))
    x = x0.copy()
    out[0] = x
    for k in range(nsteps):
        x = phi @ x + g[k]
        out[k + 1] = x
        if not np.all(np.abs(x) < limit):
            return out, k + 1
    return out, -1


def affine_path_noise(phi, g, bn, w, x0, limit):
    """Same update with an additive per-step noise term bn @ w_k."""
    nsteps = g.shape[0]
    n = x0.shape[0]
    out = np.empty((nsteps + 1, n))
    x = x0.copy()
    out[0] = x
    for k in range(nsteps):
        x = phi @ x + g[k] + bn @ w[k]
        out[k + 1] = x
        if not np.all(np.abs(x) < limit):
            return out, k + 1
    return out, -1
