"""Time-stepping kernel: the engine's one recurrence.

``sim._Jumps`` runs every chain in increment form,
``x_{k+1} = x_k + (delta x_k + g_k)``: with delta = Phi^L - I the starts
of its sub-blocks of L nodes, with delta = Phi - I the nodes it steps.
The caller fills the drives ``g_k`` of every path run together; the
kernel adds ``delta x_k``, then ``x_k``, in place with one stacked
``matmul`` per row, a matrix-vector product per path, so a path has the
same bits whichever paths it is run with.  Plain numpy; ``sim`` looks
the kernel up here at call time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affine_path"]


def affine_path(delta, out):
    """x_{k+1} = x_k + (delta x_k + g_k) for a stack of members, in place.

    `out` has shape (rows + 1, members, n).  On entry out[0] holds the
    members' states x_0 and out[k+1] their drives g_k; on return out[k]
    holds x_k.  Overflow is the caller's to test.
    """
    rows = list(out[:, :, :, None])  # (members, n, 1) views, one per row
    with np.errstate(all="ignore"):
        for prev, row in zip(rows, rows[1:]):
            row += np.matmul(delta, prev)
            row += prev
