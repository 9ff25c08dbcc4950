"""Hot time-stepping kernel.

The integrators reduce an LTI step to an affine state update
``x_{k+1} = phi x_k + g_k``.  ``sim`` steps every member of an ensemble
together, one block of grid steps at a time: the caller fills the drive
``g_k`` (input and noise terms) of every member into the block, and the
kernel adds ``phi x_k`` in place with one stacked ``matmul`` per step,
a matrix-vector product per member, so a member's path has the same
bits whichever members it is stepped with.  The divergence test runs
once per block.  A noise-free run jumps over most of its steps instead
(``sim._Jumps``) and calls the kernel only for its forced responses and
for the sub-blocks it cannot jump: those an onset splits, the horizon's
last partial one and those near the divergence limit.  Plain numpy;
``sim`` looks the kernel up here at call time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affine_path"]


def affine_path(phi, out, limit):
    """States of x_{k+1} = phi x_k + g_k for a stack of members, in place.

    `out` has shape (rows + 1, members, n).  On entry out[0] holds the
    members' states x_0 and out[k+1] their drives g_k; on return out[k]
    holds x_k.  Returns -1, or the first row k >= 1 at which a state
    magnitude of any member is >= `limit` or NaN; rows after it hold
    whatever the overflow left.
    """
    rows = list(out[:, :, :, None])  # (members, n, 1) views, one per row
    with np.errstate(all="ignore"):
        for prev, row in zip(rows, rows[1:]):
            row += np.matmul(phi, prev)
        peak = np.abs(out[1:]).max(axis=(1, 2))
    bad = np.flatnonzero(~(peak < limit))
    return int(bad[0]) + 1 if bad.size else -1
