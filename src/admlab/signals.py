"""Input signals on [0, t] with exact mode integrals ∫₀ᵗ e^{λs} u(s) ds.

Signals are piecewise constant on a strictly increasing breakpoint grid
``0 = s₀ < s₁ < … < s_K = t`` (one complex value per piece and channel), or a
single exponential probe ``u(s) = a e^{-μs}``.  For a diagonal mode with
eigenvalue λ the integral is in closed form,

    ``∫₀ᵗ e^{λs} u(s) ds = Σ_k v_k (e^{λ s_k} - e^{λ s_{k-1}})/λ``

evaluated as ``Σ_k v_k e^{λ s_{k-1}} Δ_k h(λ Δ_k)`` with ``Δ_k = s_k - s_{k-1}``
and the entire ``h(w) = (e^w - 1)/w`` (h(0) = 1), and as ``a t h((λ-μ)t)`` for
the probe kind.  :func:`_expm1`, the package's one complex e^w - 1, keeps full
relative accuracy near every zero w ∈ 2πiℤ, so no closed form cancels.

Channel layouts: a 1-d value array is a single scalar channel; a (K, m) array
is either an m-channel input (finite-rank control) or, when ``per_mode`` is
set, one scalar channel per eigenvalue of the model (full state-space input).
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import frozen

__all__ = [
    "SignalError",
    "PiecewiseSignal",
    "mode_integrals",
    "counterexample_input",
    "counterexample_intervals",
    "worst_case_phases",
    "random_signal",
]

_MAX_DENSE_ENTRIES = 4_000_000


class SignalError(Exception):
    """Invalid signal construction or evaluation request."""


def _expm1(w) -> np.ndarray:
    """e^w - 1 for complex w, accurate relative to |e^w - 1| everywhere.

    With w = x + iy and e^x = 1 + expm1(x): Re = expm1(x) - 2 e^x sin²(y/2)
    and Im = e^x sin y.  Since |e^w - 1|² = expm1(x)² + 4 e^x sin²(y/2), no
    term is more than a few times |e^w - 1|, so nothing cancels near the
    zeros w ∈ 2πiℤ, where ``exp(w) - 1`` loses all its digits.
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    with np.errstate(under="ignore"):
        em1 = np.expm1(w.real)
        ex = em1 + 1.0
        half = np.sin(0.5 * w.imag)
        out.real = em1 - 2.0 * ex * half * half
        out.imag = ex * np.sin(w.imag)
    return out


def _h(w) -> np.ndarray:
    """(e^w - 1)/w, entire, with the value 1 at w = 0."""
    w = np.asarray(w, dtype=complex)
    return np.divide(_expm1(w), w, out=np.ones_like(w), where=w != 0.0)


class PiecewiseSignal:
    """Piecewise-constant (or exponential-probe) input on [0, t].

    ``values[k]`` holds on ``[breakpoints[k], breakpoints[k+1])``.  The probe
    kind stores a single amplitude and the decay parameter ``probe_mu`` for
    ``u(s) = a e^{-μs}`` on the whole window.
    """

    def __init__(
        self,
        breakpoints,
        values,
        kind: str = "piecewise",
        probe_mu: complex = 0.0,
        per_mode: bool = False,
    ):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=complex)
        if bp.ndim != 1 or len(bp) < 2:
            raise SignalError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise SignalError("signal windows start at s = 0")
        if np.any(np.diff(bp) <= 0.0):
            raise SignalError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)):
            raise SignalError("breakpoints must be finite")
        if kind not in ("piecewise", "probe"):
            raise SignalError(f"unknown signal kind {kind!r}")
        if kind == "probe":
            if vals.ndim != 1 or vals.size != 1 or len(bp) != 2:
                raise SignalError("a probe has one amplitude on a single piece")
            probe_mu = complex(probe_mu)
            if not (math.isfinite(probe_mu.real) and math.isfinite(probe_mu.imag)):
                raise SignalError("probe parameter must be finite")
        else:
            if vals.ndim not in (1, 2) or vals.shape[0] != len(bp) - 1:
                raise SignalError("need one value row per piece")
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise SignalError("values must be finite")
        if per_mode and vals.ndim != 2:
            raise SignalError("per-mode signals need a (pieces, modes) value array")
        self.breakpoints = frozen(bp)
        self.values = frozen(vals)
        self.kind = kind
        self.probe_mu = complex(probe_mu)
        self.per_mode = bool(per_mode)

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_pieces(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def n_channels(self) -> int:
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    def sup_norm(self, weights=None) -> float:
        """L^∞ norm in time of the (weighted ℓ²) channel norm."""
        if self.kind == "probe":
            amp = float(abs(self.values[0]))
            return amp * max(1.0, math.exp(-self.probe_mu.real * self.horizon))
        if self.values.ndim == 1:
            return float(np.max(np.abs(self.values)))
        if weights is None:
            w = np.ones(self.values.shape[1])
        else:
            w = np.asarray(weights, dtype=float)
        rows = np.sqrt(np.abs(self.values) ** 2 @ w)
        return float(np.max(rows))

    def restrict(self, t: float) -> "PiecewiseSignal":
        """The same signal on the shorter window [0, t]."""
        if not 0.0 < t <= self.horizon:
            raise SignalError("restriction time must lie in (0, horizon]")
        if t == self.horizon:
            return self
        if self.kind == "probe":
            return PiecewiseSignal([0.0, t], self.values, "probe", self.probe_mu)
        keep = self.breakpoints < t
        bp = np.append(self.breakpoints[keep], t)
        return PiecewiseSignal(
            bp, self.values[: len(bp) - 1], "piecewise", per_mode=self.per_mode
        )

    def shift_origin(self, tau: float) -> "PiecewiseSignal":
        """u(tau + ·) on [0, horizon - tau]."""
        if not 0.0 <= tau < self.horizon:
            raise SignalError("shift must lie in [0, horizon)")
        if tau == 0.0:
            return self
        if self.kind == "probe":
            amp = self.values[0] * np.exp(-self.probe_mu * tau)
            return PiecewiseSignal(
                [0.0, self.horizon - tau], [amp], "probe", self.probe_mu
            )
        k = int(np.searchsorted(self.breakpoints, tau, side="right")) - 1
        bp = np.concatenate([[0.0], self.breakpoints[k + 1 :] - tau])
        return PiecewiseSignal(bp, self.values[k:], "piecewise", per_mode=self.per_mode)

    def scale_time(self, c: float) -> "PiecewiseSignal":
        """v(s) = u(s/c) on [0, c*horizon] (c > 0)."""
        if not c > 0.0:
            raise SignalError("time scale must be positive")
        if self.kind == "probe":
            return PiecewiseSignal(
                self.breakpoints * c, self.values, "probe", self.probe_mu / c
            )
        return PiecewiseSignal(
            self.breakpoints * c, self.values, "piecewise", per_mode=self.per_mode
        )

    def reversed_signal(self) -> "PiecewiseSignal":
        """u(t - ·) on the same window (probe kind has no closed reversal)."""
        if self.kind == "probe":
            raise SignalError("reverse a probe by sampling it piecewise first")
        bp = self.horizon - self.breakpoints[::-1]
        bp[0] = 0.0
        return PiecewiseSignal(
            bp, self.values[::-1], "piecewise", per_mode=self.per_mode
        )


def _expdiff_matrix(lams: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """E[n, k] = (e^{λ_n s_{k+1}} - e^{λ_n s_k})/λ_n as e^{λ_n s_k} Δ_k h(λ_n Δ_k)."""
    lams = np.asarray(lams, dtype=complex).reshape(-1, 1)
    left = edges[:-1].reshape(1, -1)
    widths = np.diff(edges).reshape(1, -1)
    with np.errstate(under="ignore"):
        return np.exp(lams * left) * widths * _h(lams * widths)


def mode_integrals(lams, u: PiecewiseSignal) -> np.ndarray:
    """∫₀ᵗ e^{λ_n s} u(s) ds for every mode, in closed form.

    Returns shape (n,) for scalar-channel and per-mode signals (the latter
    pairs channel n with λ_n) and (n, m) for m-channel signals.
    """
    lams = np.asarray(lams, dtype=complex)
    if u.kind == "probe":
        w = (lams - u.probe_mu) * u.horizon
        with np.errstate(under="ignore"):
            return u.values[0] * u.horizon * _h(w)
    E = _expdiff_matrix(lams, u.breakpoints)
    if u.values.ndim == 1:
        return E @ u.values
    if u.per_mode:
        if u.values.shape[1] != lams.size:
            raise SignalError("per-mode signal does not match the mode count")
        return np.einsum("nk,kn->n", E, u.values)
    return E @ u.values


def _validate_gammas(gammas: np.ndarray) -> None:
    re = gammas.real
    if np.any(re >= 0.0):
        raise SignalError("gamma values must lie in the open left half-plane")
    if re[0] > -1.0 + 1e-12:
        raise SignalError("the first gamma needs Re gamma_1 <= -1")
    ok = re[1:] <= 2.0 * re[:-1] * (1.0 - 1e-9)
    if not np.all(ok):
        bad = int(np.argmin(ok)) + 1
        raise SignalError(
            "subsequence rule Re gamma_{m+1} < 2 Re gamma_m fails at index "
            f"{bad + 1} ({gammas[bad]} after {gammas[bad - 1]})"
        )


def counterexample_intervals(gammas) -> list[tuple[int, float, float]]:
    """(m, a_m, b_m) with channel m supported on [a_m, b_m] ⊂ (0, 1].

    a_m = -1/(2 Re γ_m) and b_m = -1/Re γ_m; the subsequence rule
    Re γ₁ ≤ -1, Re γ_{m+1} < 2 Re γ_m makes the intervals nest disjointly
    (rule validated here, endpoints within 3e-9 relative snap together).
    """
    gam = np.asarray(gammas, dtype=complex)
    if gam.ndim != 1 or gam.size == 0:
        raise SignalError("need a nonempty 1-d gamma list")
    _validate_gammas(gam)
    a = -1.0 / (2.0 * gam.real)
    b = -1.0 / gam.real
    for m in range(gam.size - 1):
        # b_{m+1} may poke a hair above a_m at the tolerance edge of the rule.
        if a[m] < b[m + 1] <= a[m] * (1.0 + 3e-9):
            b[m + 1] = a[m]
        elif b[m + 1] > a[m]:
            raise SignalError("support intervals overlap")
    return [(m + 1, float(a[m]), float(b[m])) for m in range(gam.size)]


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

    Alternating phase alignment: with M = diag(b) E and G = M* diag(w) M,
    iterate v ← phase(G v) (sign(Re G v) over the real field), which never
    decreases the objective for the positive-semidefinite G.  Several seeded
    restarts; the best iterate is returned as a certified lower bound for the
    input-map norm over this piecewise-constant subclass (the true supremum
    ranges over all of L^∞, so this is a lower bound, never a norm).
    """
    E = np.asarray(integrals, dtype=complex)
    if E.ndim != 2:
        raise SignalError("integrals must be a (modes, pieces) matrix")
    w = np.asarray(weights, dtype=float)
    b = np.asarray(mode_coeffs, dtype=complex)
    M = b[:, None] * E
    G = M.conj().T @ (w[:, None] * M)
    K = G.shape[0]

    def value(v: np.ndarray) -> float:
        q = float(np.real(np.vdot(v, G @ v)))
        return math.sqrt(max(q, 0.0))

    rng = np.random.default_rng(seed)
    best_v = np.ones(K, dtype=complex)
    best_val = value(best_v)
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
        if cur > best_val:
            best_val, best_v = cur, v
    u = None
    if breakpoints is not None:
        u = PiecewiseSignal(breakpoints, best_v, "piecewise")
    return u, best_val


def random_signal(
    rng: np.random.Generator,
    horizon: float,
    n_pieces: int,
    n_channels: int = 1,
    complex_field: bool = True,
    amplitude: float = 1.0,
) -> PiecewiseSignal:
    """Seeded random piecewise signal with values in the amplitude ball."""
    if n_pieces < 1 or horizon <= 0.0:
        raise SignalError("need a positive horizon and at least one piece")
    interior = np.sort(rng.random(n_pieces - 1)) * horizon
    bp = np.concatenate([[0.0], interior, [horizon]])
    bp = np.unique(bp)
    while len(bp) < n_pieces + 1:
        bp = np.unique(np.concatenate([bp, rng.random(n_pieces + 1 - len(bp)) * horizon]))
    shape = (n_pieces,) if n_channels == 1 else (n_pieces, n_channels)
    if complex_field:
        vals = amplitude * rng.random(shape) * np.exp(2j * math.pi * rng.random(shape))
    else:
        vals = amplitude * (2.0 * rng.random(shape) - 1.0) + 0j
    return PiecewiseSignal(bp, vals, "piecewise")
