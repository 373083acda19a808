"""The half-plane grid the Weiss check used to search on every route.

``weiss_check`` now takes the supremum in closed form for ``aminus_full`` and
for p = 1, searches only the imaginary axis for p = oo, and keeps a grid with
a row skip for p = 2 alone.  This is the plain form of the old search: every
point of the 25 x 51 grid and every per-mode candidate, in one pass of
fixed-size blocks.  ``_resolvent_norms`` and ``_weiss_candidates`` are kept
here as they were, with their ``aminus_full`` and p = 1 branches, so that the
reference does not share the library's code.
"""

import math
from typing import Callable

import numpy as np

from admlab.signals import _GRID_ENTRIES, _block_rows

_WEISS_CANDIDATES = 1000


def _weiss_factor(p: float, re: np.ndarray) -> np.ndarray:
    if math.isinf(p):
        return np.ones_like(re)
    return (p * re) ** (1.0 / p)


def _resolvent_norms(A, B) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a points-by-modes block ``dist`` of |mu - lambda_n| to
    ||R(mu, A_{-1}) B|| at each of its points, exact per kind; the per-mode
    data is formed once, for every block.

    For m >= 2 columns the squared norm at mu is the largest eigenvalue of
    the m x m Gram G(mu) = sum_n w_n conj(b_n) b_n^T / |mu - lambda_n|^2,
    taken for every point of the block by one real product with ``dist``."""
    lam = A.eigenvalues
    if B.kind == "aminus_full":
        mag = np.abs(lam)
        return lambda dist: np.max(mag / dist, axis=1)
    cols = B._coefficients(A)
    m = cols.shape[1]
    if m == 1:
        c = A.weights * np.abs(cols[:, 0]) ** 2
        return lambda dist: np.sqrt(dist**-2 @ c)
    outer = A.weights[:, None, None] * cols.conj()[:, :, None] * cols[:, None, :]
    # complex entries as (re, im) float pairs: one real product for the block
    flat = np.ascontiguousarray(outer.reshape(len(lam), m * m)).view(float)

    def gram_norms(dist: np.ndarray) -> np.ndarray:
        gram = (dist**-2 @ flat).view(complex).reshape(len(dist), m, m)
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))

    return gram_norms


def _weiss_candidates(A, p: float) -> np.ndarray:
    lam = A.eigenvalues
    re = np.abs(lam.real)
    if lam.size > _WEISS_CANDIDATES:
        score = np.abs(lam) / re
        idx = np.argpartition(-score, _WEISS_CANDIDATES - 1)[:_WEISS_CANDIDATES]
        lam, re = lam[idx], re[idx]
    if math.isinf(p):
        return 1e-9 * re + 1j * lam.imag
    if p == 1.0:
        return 1e9 * (1.0 + np.abs(lam)) + 1j * lam.imag
    return re + 1j * lam.imag


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
