"""The divergence construction's input as one dense per-mode signal.

Tests integrate it through ``input_map`` as a check of the closed-form partial
sums S_M of ``certify.counterexample_run`` that shares none of their algebra.
"""

import numpy as np

from admlab.signals import PiecewiseSignal, SignalError, counterexample_intervals

_MAX_DENSE_ENTRIES = 4_000_000


def counterexample_input(gammas) -> PiecewiseSignal:
    """Per-mode indicator input on [0, 1]: channel m is 1 on [a_m, b_m).

    The supports are pairwise disjoint (asserted), so the signal has
    sup-norm exactly 1 in every weighted ℓ² channel norm with unit weights.
    """
    table = counterexample_intervals(gammas)
    M = len(table)
    a = np.array([row[1] for row in table])
    b = np.array([row[2] for row in table])
    pts = np.unique(np.concatenate([[0.0, 1.0], a, b]))
    K = len(pts) - 1
    if K * M > _MAX_DENSE_ENTRIES:
        raise SignalError(
            f"dense indicator matrix would hold {K * M} entries; use the "
            "closed-form divergence runner for large mode counts"
        )
    mids = 0.5 * (pts[:-1] + pts[1:])
    active = (mids[:, None] >= a[None, :]) & (mids[:, None] < b[None, :])
    if np.any(np.sum(active, axis=1) > 1):
        raise SignalError("support intervals overlap")  # unreachable after snap
    values = active.astype(complex)
    return PiecewiseSignal(pts, values, "piecewise", per_mode=True)
