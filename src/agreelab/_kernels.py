"""Hot time-stepping kernel.

The integrators reduce an LTI step to an affine state update
``x_{k+1} = phi x_k + g_k``, so the inner loop is a dense
matrix-vector product repeated for every grid step.  The caller fills
the drive ``g_k`` (input and noise terms) into the output buffer, and
the kernel adds ``phi x_k`` in place.  Plain numpy; ``sim`` looks the
kernel up here at call time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affine_path"]


def affine_path(phi, out, limit):
    """States of x_{k+1} = phi x_k + g_k, computed in place.

    On entry out[0] is x_0 and out[k+1] holds g_k; on return out[k] is
    x_k.  Returns -1, or, if some state magnitude crossed `limit`, the
    first offending node index, in which case later rows are left as
    they were.
    """
    for k in range(1, out.shape[0]):
        x = out[k]
        x += phi @ out[k - 1]
        if not np.all(np.abs(x) < limit):
            return k
    return -1
