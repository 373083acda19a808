"""The full-grid reference for the Weiss check.

The library evaluates the per-mode candidate points first and then only the
grid rows whose bound can still beat the best value found.  This is the plain
form it replaces: every grid point and every candidate, in one pass of
fixed-size blocks.
"""

import math

import numpy as np

from admlab.certify import _resolvent_norms, _weiss_candidates, _weiss_factor
from admlab.signals import _GRID_ENTRIES, _block_rows


def weiss_full_grid(A, B, p, n_re=25, n_im=25):
    """(value, skipped) of the Weiss grid supremum over every point."""
    p = math.inf if p in ("inf", "oo") else float(p)
    re = np.geomspace(1e-6, 1e6, n_re)
    im_half = np.geomspace(1e-6, 1e6, n_im)
    im = np.concatenate([-im_half[::-1], [0.0], im_half])
    pts = (re[:, None] + 1j * im[None, :]).ravel()
    allpts = np.concatenate([pts, _weiss_candidates(A, p)])
    norms = _resolvent_norms(A, B)
    chunk = _block_rows(A.n_modes, _GRID_ENTRIES)
    best, skipped = 0.0, 0
    for i0 in range(0, len(allpts), chunk):
        blk = allpts[i0 : i0 + chunk]
        dist = np.abs(blk[:, None] - A.eigenvalues[None, :])
        ok = dist.min(axis=1) > 1e-12 * (1.0 + np.abs(blk))
        if not ok.all():
            skipped += int(np.sum(~ok))
            blk, dist = blk[ok], dist[ok]
        if blk.size:
            vals = _weiss_factor(p, blk.real) * norms(dist)
            best = max(best, float(np.max(vals)))
    return best, skipped
