"""Time-stepping kernel.

The integrators reduce an LTI step to an affine state update
``x_{k+1} = phi x_k + g_k``.  ``sim._Jumps`` jumps over most steps of
every noisy run and of every noise-free one that is not integrated
mode by mode, and calls this kernel only for what it cannot jump: the
forced response of each input level, the last fewer than eight nodes of
each stretch of constant inputs and, per path, the sub-blocks near the
divergence limit.  The caller fills the drive
``g_k`` (input and noise terms) of every path stepped together, and the
kernel adds ``phi x_k`` in place with one stacked ``matmul`` per step,
a matrix-vector product per path, so a path has the same bits whichever
paths it is stepped with.  The divergence test runs once per call.
Plain numpy; ``sim`` looks the kernel up here at call time.
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
