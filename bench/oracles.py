"""Reference values computed without admlab's own algebra.

Every function here takes plain numpy data (eigenvalues, weights, column
matrices, Young-function segments as tuples) and recomputes a quantity that
admlab also computes, by a different route:

* trajectories by stepping the semigroup piece by piece instead of summing
  closed-form mode integrals over the whole window;
* the L2 input-map norm from one Lyapunov solve for all columns together
  (``scipy.linalg.solve_continuous_lyapunov``), instead of per-column Grams;
* power-law Luxemburg norms in closed form, piecewise Young functions by the
  bracket property of a modular evaluated here (tails by ``mpmath.quad``);
* the divergence summand, the probe floor and the per-mode resolvent and
  square-function suprema from their closed forms, in ``mpmath`` where
  cancellation matters.

Each ``check_*`` function returns ``None`` when the program's value passes and
a short reason string when it does not.  ``scipy`` and ``mpmath`` are imported
inside the functions that use them, so that a workload's set-up time counts
admlab's imports and not the oracles'.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def step_states(lam, cols, x0, breakpoints, values, times):
    """Mild solution x(t) at each t in ``times`` by per-piece semigroup steps.

    ``cols`` is the (n, m) matrix of input columns (``lam * x0`` for the
    rank-one form), ``values`` the (K,) or (K, m) piece values.  Each step over
    a gap ``d`` on which the input is ``v`` is
    ``x <- e^{lam d} x + (cols v) d expm1(lam d) / (lam d)``.
    """
    lam = np.asarray(lam, dtype=complex)
    cols = np.asarray(cols, dtype=complex).reshape(lam.size, -1)
    vals = np.asarray(values, dtype=complex).reshape(len(breakpoints) - 1, -1)
    bp = np.asarray(breakpoints, dtype=float)
    times = [float(t) for t in times]
    nodes = sorted(set(bp.tolist()) | set(times))
    nodes = [s for s in nodes if s <= max(times)]
    x = np.array(x0, dtype=complex)
    out = {}
    if 0.0 in times:
        out[0.0] = x.copy()
    for a, c in zip(nodes[:-1], nodes[1:]):
        k = min(int(np.searchsorted(bp, a, side="right")) - 1, len(vals) - 1)
        z = lam * (c - a)
        x = np.exp(z) * x + (cols @ vals[k]) * (c - a) * (np.expm1(z) / z)
        if c in times:
            out[c] = x.copy()
    return [out[t] for t in times]


def rel_error(a, b) -> float:
    """l2 distance of two coefficient vectors relative to ``b``."""
    b = np.asarray(b)
    return float(np.linalg.norm(np.asarray(a) - b)) / max(float(np.linalg.norm(b)), 1e-300)


def check_states(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        err = rel_error(g, w)
        if not err <= 1e-9:
            return f"state {i} differs from the stepper by {err:.3e} (tol 1e-9)"
    return None


# ---------------------------------------------------------------------------
# Input-map norms
# ---------------------------------------------------------------------------


def l2_sup(lam, weights, cols) -> float:
    """sup_t ||Phi_t||_{L2 -> X} = sqrt(lambda_max(W_oo)), one Lyapunov solve.

    ``W_oo`` solves ``L W + W L^* = -B B^*`` for the weighted columns of all
    channels at once; ``W_t`` increases with t, so its limit is the supremum.
    """
    from scipy.linalg import solve_continuous_lyapunov

    lam = np.asarray(lam, dtype=complex)
    Bw = np.sqrt(np.asarray(weights, dtype=float))[:, None] * np.asarray(
        cols, dtype=complex
    ).reshape(lam.size, -1)
    W = solve_continuous_lyapunov(np.diag(lam), -Bw @ Bw.conj().T)
    W = 0.5 * (W + W.conj().T)
    return math.sqrt(max(float(np.linalg.eigvalsh(W)[-1]), 0.0))


def l1_norm(weights, cols) -> float:
    """||Phi||_{L1 -> X} = sup_s ||T(s) B|| = sigma_max(W^{1/2} B), via B^* W B."""
    B = np.asarray(cols, dtype=complex)
    B = B.reshape(B.shape[0], -1)
    gram = B.conj().T @ (np.asarray(weights, dtype=float)[:, None] * B)
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def const_input_value(lam, weights, cols, t, full=False) -> float:
    """Best constant-input image ||Phi_t u||, |u| = 1 on one channel.

    Columns: max_j ||sum_n b_nj (e^{lam_n t} - 1)/lam_n e_n||.  Full diagonal
    (``full``): max_n |e^{lam_n t} - 1|, the unit input on mode n.
    """
    lam = np.asarray(lam, dtype=complex)
    g = np.abs(np.expm1(lam * t))
    if full:
        return float(np.max(g))
    B = np.asarray(cols, dtype=complex).reshape(lam.size, -1)
    w = np.asarray(weights, dtype=float)
    per_col = (w * (g / np.abs(lam)) ** 2) @ np.abs(B) ** 2
    return float(math.sqrt(float(np.max(per_col))))


def check_close(name, got, want, tol):
    got, want = float(got), float(want)
    if not abs(got - want) <= tol * max(abs(want), 1e-300):
        return f"{name} = {got!r}, oracle {want!r} (rel tol {tol:g})"
    return None


def check_lower(name, got, floor, tol=1e-9):
    if not float(got) >= float(floor) * (1.0 - tol):
        return f"{name} = {float(got)!r} is below the achievable {float(floor)!r}"
    return None


# ---------------------------------------------------------------------------
# Young functions, modulars, Luxemburg norms
# ---------------------------------------------------------------------------


def power_luxemburg(scale, p, edges, values, tail_rate=None) -> float:
    """||f|| for Phi(x) = scale x^p in closed form: (scale int |f|^p)^{1/p}.

    An exponential tail ``a e^{-rho (s - T)}`` adds ``a^p / (p rho)``.
    """
    v = np.abs(np.asarray(values, dtype=float))
    mass = float(np.dot(v**p, np.diff(np.asarray(edges, dtype=float))))
    if tail_rate is not None:
        mass += float(v[-1]) ** p / (p * tail_rate)
    return (scale * mass) ** (1.0 / p)


def young_eval(segments, x):
    """Phi(x) = int_0^x density, summed segment by segment.

    ``segments`` is a list of ``(x0, kind, c, r)``: density ``c s^r`` for kind
    'power', ``c`` for kind 'const', on ``[x0, next x0)``.
    """
    x = np.abs(np.asarray(x, dtype=float))
    total = np.zeros_like(x)
    for i, (x0, kind, c, r) in enumerate(segments):
        hi = segments[i + 1][0] if i + 1 < len(segments) else math.inf
        b = np.clip(x, x0, hi)
        if kind == "power":
            total += c / (r + 1.0) * (b ** (r + 1.0) - x0 ** (r + 1.0))
        else:
            total += c * (b - x0)
    return total


def _young_mp(segments, x):
    import mpmath as mp

    total = mp.mpf(0)
    for i, (x0, kind, c, r) in enumerate(segments):
        hi = segments[i + 1][0] if i + 1 < len(segments) else mp.inf
        if x <= x0:
            break
        b = min(x, hi)
        if kind == "power":
            total += mp.mpf(c) / (r + 1) * (mp.mpf(b) ** (r + 1) - mp.mpf(x0) ** (r + 1))
        else:
            total += mp.mpf(c) * (b - x0)
    return total


def tail_modular(segments, a, rate) -> float:
    """int_0^oo Phi(a e^{-rate s}) ds = (1/rate) int_0^a Phi(v)/v dv, by quadrature."""
    import mpmath as mp

    if a <= 0.0:
        return 0.0
    with mp.workdps(25):
        pts = [mp.mpf(0)] + [mp.mpf(s[0]) for s in segments if 0.0 < s[0] < a]
        pts.append(mp.mpf(a))
        val = mp.quad(lambda v: _young_mp(segments, v) / v, pts)
    return float(val) / rate


def own_modular(segments, edges, values, tail_rate, k) -> float:
    """int Phi(|f|/k) for a piecewise-constant profile with optional tail."""
    v = np.abs(np.asarray(values, dtype=float)) / k
    core = float(np.dot(young_eval(segments, v), np.diff(np.asarray(edges, dtype=float))))
    if tail_rate is not None:
        core += tail_modular(segments, float(v[-1]), tail_rate)
    return core


def own_luxemburg(segments, edges, values) -> float:
    """Luxemburg norm of a profile without tail, by bisection on own_modular."""
    v = np.abs(np.asarray(values, dtype=float))
    if not np.any(v > 0.0):
        return 0.0
    lo, hi = 1e-300, float(np.max(v))
    while own_modular(segments, edges, values, None, hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    lo = max(lo, hi * 2.0**-60)
    for _ in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if own_modular(segments, edges, values, None, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def check_bracket(segments, edges, values, tail_rate, norm):
    """The returned norm brackets modular level 1: <= 1 at it, > 1 at
    ``norm * (1 - 1e-7)``."""
    at = own_modular(segments, edges, values, tail_rate, norm)
    under = own_modular(segments, edges, values, tail_rate, norm * (1.0 - 1e-7))
    if not at <= 1.0 + 1e-9:
        return f"modular at the returned norm is {at!r} > 1"
    if not under > 1.0:
        return f"modular just below the returned norm is {under!r} <= 1"
    return None


def power_conjugate(scale, p, y):
    """Legendre transform of scale x^p: (p-1)/p (scale p)^{-1/(p-1)} y^{p/(p-1)}."""
    q = p / (p - 1.0)
    return (p - 1.0) / p * (scale * p) ** (-1.0 / (p - 1.0)) * np.asarray(y) ** q


def power_profile_modular(segments, c, a):
    """int_0^1 Phi(c s^a) ds by mpmath quadrature, split where c s^a crosses a
    breakpoint and, for a < 0, at 10^-k towards the singularity at 0."""
    import mpmath as mp

    with mp.workdps(30):
        cuts = {mp.mpf(0), mp.mpf(1)}
        if a < 0.0:
            cuts |= {mp.mpf(10) ** -k for k in range(1, 31)}
        for x0, *_ in segments[1:]:
            s = (mp.mpf(x0) / c) ** (mp.mpf(1) / a)
            if 0 < s < 1:
                cuts.add(s)
        pts = sorted(cuts)
        val = mp.quad(lambda s: _young_mp(segments, c * s**a), pts)
    return float(val)


# ---------------------------------------------------------------------------
# Closed forms of the certificates
# ---------------------------------------------------------------------------


def counterexample_sigma(k) -> float:
    """sigma = |e^{-(1+ik)} - e^{-(1+ik)/2}|^2, in 40-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(40):
        z = mp.mpc(1, k)
        return float(abs(mp.exp(-z) - mp.exp(-z / 2)) ** 2)


def probe_floor(angle) -> float:
    """|e^{-e^{i angle}} - 1|: the matched-scale probe value (1 - 1/e at 0)."""
    import mpmath as mp

    with mp.workdps(40):
        return float(abs(mp.expm1(-mp.expjpi(mp.mpf(angle) / mp.pi))))


def sqfct_per_mode(lam):
    """int_0^oo |phi0(t lam)|^2 dt/t = |lam| / (2 |Re lam|), mode by mode."""
    return [abs(z) / (2.0 * abs(z.real)) for z in (complex(v) for v in lam)]


def weiss_rows(lam, weights, cols, full=False):
    """Row magnitudes m_n with ||R(l) B|| built from m_n / |l - lam_n|."""
    lam = np.asarray(lam, dtype=complex)
    if full:
        return np.abs(lam)
    B = np.asarray(cols, dtype=complex).reshape(lam.size, -1)
    return np.sqrt(np.asarray(weights, dtype=float) * np.sum(np.abs(B) ** 2, axis=1))


def weiss_bounds(lam, rows, p, full=False):
    """(floor, upper) for sup_{Re l > 0} (p Re l)^{1/p} ||R(l, A_{-1}) B||.

    One mode alone attains ``m_n / r_n`` (p = oo) or ``m_n / sqrt(2 r_n)``
    (p = 2), r_n = |Re lam_n|: the floor is their maximum.  The Frobenius norm
    with |l - lam_n| >= r_n (resp. >= Re l + r_n) bounds the supremum above;
    for the full diagonal the resolvent is diagonal and the floor is exact.
    """
    r = np.abs(np.asarray(lam, dtype=complex).real)
    m = np.asarray(rows, dtype=float)
    per = m / r if math.isinf(p) else m / np.sqrt(2.0 * r)
    floor = float(np.max(per))
    upper = floor if full else float(math.sqrt(float(np.sum(per**2))))
    return floor, upper


def check_certificate(res, n_trials):
    if res["violations"]:
        return f"{len(res['violations'])} envelope violations"
    if res["n_trials"] != n_trials:
        return f"ran {res['n_trials']} trials, asked for {n_trials}"
    if not 0.0 < res["max_ratio"] <= 1.0:
        return f"max_ratio {res['max_ratio']!r} outside (0, 1]"
    return None
