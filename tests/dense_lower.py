"""Dense and one-at-a-time references for the L∞ lower bound.

The library builds the phase-search Grams from powers on a uniform grid,
runs every restart of every Gram's phase search as one stack and finds the chain
bound's picks by ``searchsorted``.  These are the plain forms they replace:
the n×K matrix of exact piece integrals, its Gram M* diag(w) M, the search
one restart at a time and the greedy chain loop over every mode.  The dense
phase oracle, :func:`worst_case_phases`, runs the library's search on such a
Gram of any integral matrix, as a stack of one.
"""

import math

import numpy as np

from admlab.signals import PiecewiseSignal, SignalError, _h, _phase_search


def expdiff_matrix(lams, edges) -> np.ndarray:
    """E[n, k] = (e^{λ_n s_{k+1}} - e^{λ_n s_k})/λ_n, taken as
    e^{λ_n s_k} Δ_k h(λ_n Δ_k)."""
    lams = np.asarray(lams, dtype=complex).reshape(-1, 1)
    left = edges[:-1].reshape(1, -1)
    widths = np.diff(edges).reshape(1, -1)
    with np.errstate(under="ignore"):
        return np.exp(lams * left) * widths * _h(lams * widths)


def dense_grams(lams, weights, coeffs, edges) -> np.ndarray:
    """G_j = M_j* diag(w) M_j with M_j = diag(b_j) E, for each column b_j."""
    E = expdiff_matrix(lams, edges)
    w = np.asarray(weights, dtype=float)[:, None]
    out = []
    for b in np.asarray(coeffs, dtype=complex).T:
        M = b[:, None] * E
        out.append(M.conj().T @ (w * M))
    return np.array(out)


def worst_case_phases(
    integrals,
    weights,
    mode_coeffs,
    breakpoints=None,
    real_field: bool = False,
    restarts: int = 8,
    iters: int = 200,
    seed: int = 0,
) -> tuple[PiecewiseSignal | None, float]:
    """Maximize ‖Σ_k v_k b_n E_{nk}‖_w over piece values |v_k| ≤ 1.

    Alternating phase alignment on the Gram G = M* diag(w) M of M = diag(b) E
    (see ``signals._phase_search``).  The best iterate is returned as a
    certified lower bound for the input-map norm over this piecewise-constant
    subclass (the true supremum ranges over all of L^∞, so this is a lower
    bound, never a norm).
    """
    E = np.asarray(integrals, dtype=complex)
    if E.ndim != 2:
        raise SignalError("integrals must be a (modes, pieces) matrix")
    w = np.asarray(weights, dtype=float)
    b = np.asarray(mode_coeffs, dtype=complex)
    M = b[:, None] * E
    G = M.conj().T @ (w[:, None] * M)
    (best_v,), (best_val,) = _phase_search(G[None], real_field, restarts, iters, [seed])
    u = None
    if breakpoints is not None:
        u = PiecewiseSignal(breakpoints, best_v, "piecewise")
    return u, float(best_val)


def phase_search_loop(G, real_field, restarts, iters, seed):
    """The phase search one restart at a time: the best v, its value, and
    every restart's final (v, value).

    Restart 0 starts from all ones, the others from seeded random phases (or
    signs); each iterates v ← phase(G v) until a step gains less than 1e-14
    relative, and a later restart wins only if it is strictly better.
    """
    K = G.shape[0]

    def value(v):
        q = float(np.real(np.vdot(v, G @ v)))
        return math.sqrt(max(q, 0.0))

    rng = np.random.default_rng(seed)
    best_v = np.ones(K, dtype=complex)
    best_val = value(best_v)
    finals = []
    for trial in range(max(1, restarts)):
        if trial == 0:
            v = np.ones(K, dtype=complex)
        elif real_field:
            v = rng.choice([-1.0, 1.0], size=K).astype(complex)
        else:
            v = np.exp(2j * math.pi * rng.random(K))
        cur = value(v)
        for _ in range(max(1, iters)):
            g = G @ v
            if real_field:
                v_new = np.where(g.real >= 0.0, 1.0, -1.0).astype(complex)
            else:
                absg = np.abs(g)
                v_new = np.where(absg > 0.0, g / np.where(absg > 0.0, absg, 1.0), v)
            new = value(v_new)
            if new <= cur * (1.0 + 1e-14):
                v = v_new if new > cur else v
                cur = max(new, cur)
                break
            v, cur = v_new, new
        finals.append((v, cur))
        if cur > best_val:
            best_val, best_v = cur, v
    return best_v, best_val, finals


def chain_lower_loop(lams, t) -> float:
    """The disjoint-support chain bound by the greedy loop over every mode."""
    lam = np.asarray(lams, dtype=complex)
    r = -lam.real
    order = np.argsort(r)
    picked = []
    prev = None
    for idx in order:
        if r[idx] < 1.0 / t:
            continue
        if prev is None or r[idx] >= 2.0 * prev * (1.0 - 1e-9):
            picked.append(idx)
            prev = r[idx]
    if not picked:
        return 0.0
    sel = lam[np.array(picked)]
    rs = -sel.real
    with np.errstate(under="ignore"):
        summands = np.abs(np.exp(sel / rs) - np.exp(sel / (2.0 * rs))) ** 2
    return float(math.sqrt(float(np.sum(summands))))
