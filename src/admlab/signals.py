"""Input signals on [0, t] with exact mode integrals ∫₀ᵗ e^{λs} u(s) ds.

Signals are piecewise constant on a strictly increasing breakpoint grid
``0 = s₀ < s₁ < … < s_K = t`` (one complex value per piece and channel), or a
single exponential probe ``u(s) = a e^{-μs}``.  For a diagonal mode with
eigenvalue λ the integral is in closed form,

    ``∫₀ᵗ e^{λs} u(s) ds = Σ_k v_k e^{λ s_{k-1}} Δ_k h(λ Δ_k)``

with ``Δ_k = s_k - s_{k-1}`` and the entire ``h(w) = (e^w - 1)/w`` (h(0) = 1),
and ``a t h((λ-μ)t)`` for the probe kind.  :func:`mode_integrals` evaluates
the sum in Horner form from the last piece back, by the semigroup property
e^{λ s_k} = e^{λ s_{k-1}} e^{λ Δ_k}:

    ``acc ← (acc + z_k acc) + c_k v_k``,  ``z_k = e^{λ Δ_k} - 1``,

with the piece weight ``c_k = Δ_k h(λ Δ_k)`` taken as ``z_k·(1/λ)`` (equal in
exact arithmetic; 1/λ is formed once per call, and the modes where 1/λ or
λΔ_k leaves the normal range keep Δ_k h(λ Δ_k)).  That is one e^w - 1 and
a few multiplies per mode and piece, no complex division, O(n·m·K) time and
O(n·m) memory for n modes, m channels and K pieces.  No e^{λ s_k} is formed,
and the z_k and the weights c_k v_k are taken for a few pieces at a time (at
most ``_BLOCK_ENTRIES`` piece–mode pairs), never as an n×K matrix.  A block
product rounds each row of two or more entries as the row's own product
does, but a one-element product rounds by its operands' layout, so a
one-mode pass takes its weights row by row.  The recursion lives in one
kernel, :func:`_horner`, with one value per mode and piece.  It can mix an
m-channel value row into one value per mode, Σ_j v_kj b_j, before
integrating: an input map through m columns b_j then keeps one n-long
accumulator, and pays m multiply-adds per mode and piece for the mixing on
top of one recursion step; :func:`mode_integrals` of an m-channel signal
is one scalar pass per channel.  It can also restart from zero at given
pieces and yield the sum of each run as the pass leaves it: a sampled
path's T windows (``PiecewiseSignal._windows``) are then integrated in one
pass, O(n·(K+T)) time and O(n) memory, with blocks that span windows.
The semigroup damps the high modes within one piece: a mode is dead in a
pass when its e^{λΔ} - 1 rounds to exactly -1 at the pass's smallest width
(z_k = -1 at every piece), so ``acc + z_k acc`` is an exact +0 and each
run's sum is its first piece alone, ``(z·(1/λ))·v + 0``.  When more than
half of the modes are dead, only the live ones run through the row loop and
the dead ones take that closed form, bit for bit the whole loop's sums.
:func:`_expm1`, the package's one complex e^w - 1, keeps full relative
accuracy near every zero w ∈ 2πiℤ, so no closed form cancels, and skips the
sines of the modes whose e^{Re w} underflows to 0.

Channel layouts: a 1-d value array is a single scalar channel; a (K, m) array
is either an m-channel input (finite-rank control) or, when ``per_mode`` is
set, one scalar channel per eigenvalue of the model (full state-space input).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from ._frozen import frozen

__all__ = [
    "SignalError",
    "PiecewiseSignal",
    "mode_integrals",
    "counterexample_intervals",
    "random_signal",
]

_BLOCK_ENTRIES = 4096  # complex mode-piece entries per block, 64 KB (_horner)
_GRID_ENTRIES = 1 << 16  # real points-by-modes entries per grid block (512 KB)
_FLUSH = 2.0**-300  # a power |ρ^k|² below this is 0 in the phase-search Grams
_DEAD_RATE = 110.0  # a grid mode with Re λΔ below minus this has every |ρ^k|² < _FLUSH
_TINY = float(np.finfo(float).tiny)  # the smallest normal double, 2^-1022


def _block_rows(row_len: int, entries: int) -> int:
    """Rows per block of a matrix with ``row_len`` entries a row, so that a
    block holds about ``entries`` entries.  The count is a multiple of 4 (and
    at least 4): OpenBLAS's gemv kernels take rows four at a time, so each
    row's dot product then runs the same kernel path as in the whole matrix,
    and a row-blocked matrix-vector product is bit-identical to one product.
    """
    return max(4, entries // max(row_len, 1) // 4 * 4)


class SignalError(Exception):
    """Invalid signal construction or evaluation request."""


def _expm1(w) -> np.ndarray:
    """e^w - 1 for complex w, accurate relative to |e^w - 1| everywhere.

    With w = x + iy and e^x = 1 + expm1(x): Re = expm1(x) - 2 e^x sin²(y/2)
    and Im = e^x sin y.  Since |e^w - 1|² = expm1(x)² + 4 e^x sin²(y/2), no
    term is more than a few times |e^w - 1|, so nothing cancels near the
    zeros w ∈ 2πiℤ, where ``exp(w) - 1`` loses all its digits.

    Where expm1(x) == -1 exactly, e^x is 0 in double precision and the value
    is -1 + 0j whatever y is.  When most entries are such underflowed ones,
    only the live entries pay for the two sines, which are slow for large y.
    """
    w = np.asarray(w, dtype=complex)
    with np.errstate(under="ignore"):
        em1 = np.expm1(w.real)
        live = em1 != -1.0
        n_live = int(np.count_nonzero(live))
        if 2 * n_live >= live.size:
            return _expm1_parts(em1, w.imag)
        out = np.full(w.shape, -1.0 + 0.0j)
        if n_live:
            out[live] = _expm1_parts(em1[live], w.imag[live])
    return out


def _expm1_parts(em1: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The two formulas of :func:`_expm1` from expm1(x) and y."""
    out = np.empty(em1.shape, dtype=complex)
    ex = em1 + 1.0
    half = np.sin(0.5 * y)
    out.real = em1 - 2.0 * ex * half * half
    out.imag = ex * np.sin(y)
    return out


def _h(w, em1=None) -> np.ndarray:
    """(e^w - 1)/w, entire, with the value 1 at w = 0; ``em1`` = e^w - 1 if known.

    Below the normal range, |w| < 2^-1022, h(w) = 1 + w/2 + ... is 1 in
    double precision, and numpy's complex division by such a w overflows
    (it forms 1/w), so those entries are 1.
    """
    w = np.asarray(w, dtype=complex)
    if em1 is None:
        em1 = _expm1(w)
    return np.divide(em1, w, out=np.ones_like(w), where=np.abs(w) >= _TINY)


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
        if (bp[1:] - bp[:-1] <= 0.0).any():  # np.diff's sign test, without its overhead
            raise SignalError("breakpoints must be strictly increasing")
        if not np.isfinite(bp).all():
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
        if not np.isfinite(vals).all():
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
        return float(np.max(self._piece_norms(weights)))

    def _piece_norms(self, weights=None) -> np.ndarray:
        """The (weighted ℓ²) channel norm of each piece's value row."""
        if self.values.ndim == 1:
            return np.abs(self.values)
        if weights is None:
            w = np.ones(self.values.shape[1])
        else:
            w = np.asarray(weights, dtype=float)
        return np.sqrt(np.abs(self.values) ** 2 @ w)

    def _running_sup(self, times) -> np.ndarray:
        """``self.restrict(t).sup_norm()`` for each t in ``times``, in (0,
        horizon], from one running maximum of the piece norms: O(K + T) for
        K pieces and T times, with no signal built per time.  The last piece
        that restrict keeps is ``searchsorted(breakpoints, t) - 1``, and a
        piece's norm does not depend on the pieces after it, so every value
        is bit for bit the restricted signal's (the tests check this on
        prefixes of 1 to 3 channels).  Piecewise signals only.
        """
        running = np.maximum.accumulate(self._piece_norms())
        return running[np.searchsorted(self.breakpoints, times) - 1]

    def _prefix_profile(self, t: float):
        """(edges, widths, |values|) of ``self.restrict(t)``, t in (0,
        horizon]: the Luxemburg twin of :meth:`_running_sup`.  Window t keeps
        the first c = ``searchsorted(breakpoints, t)`` pieces, so its edges
        are the first c breakpoints and t, and its magnitudes those of the
        first c values: the same floats that ``restrict`` and then
        ``np.diff`` and ``np.abs`` give, with O(c) work and no signal built.
        Scalar piecewise signals only.
        """
        c = int(np.searchsorted(self.breakpoints, t))
        edges = self.breakpoints[: c + 1].copy()
        edges[c] = t
        return edges, np.diff(edges), np.abs(self.values[:c])

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
            return PiecewiseSignal(
                [0.0, self.horizon - tau], [self._probe_value(tau)], "probe",
                self.probe_mu,
            )
        k = int(np.searchsorted(self.breakpoints, tau, side="right")) - 1
        bp = self.breakpoints[k:] - tau
        bp[0] = 0.0
        return PiecewiseSignal(bp, self.values[k:], "piecewise", per_mode=self.per_mode)

    def _probe_value(self, s: float) -> complex:
        """u(s) = a e^{-μs} of a probe, or a SignalError naming the probe."""
        a = complex(self.values[0])
        if a == 0.0:
            return a
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(a * np.exp(-self.probe_mu * s))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise SignalError(
                f"probe value a*e^(-mu*s) overflows for a={a}, mu={self.probe_mu} "
                f"at s={s:g}"
            )
        return value

    def _windows(self, times) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Widths and value rows of u(p + ·) reversed on [0, t - p] for each
        pair of consecutive sample times p < t (p = 0 before the first).

        Window j is ``self.shift_origin(p).restrict(t - p).reversed_signal()``
        with its widths ``np.diff`` of the breakpoints, computed by the same
        float operations as those three methods, so that integrating it is
        bit for bit integrating the chained signals.  Returns the windows'
        widths and values concatenated with the last window first, so that a
        Horner pass from the last piece back meets the windows in time order,
        and the index of each window's first piece in that layout.  Piecewise
        signals only; the caller checks that 0 < t - p <= horizon - p.
        """
        bp, vals = self.breakpoints, self.values
        times = np.asarray(times, dtype=float)
        prevs = np.concatenate([[0.0], times[:-1]])
        spans = times - prevs
        firsts = np.searchsorted(bp, prevs, side="right") - 1
        stops = np.searchsorted(bp, times)  # later breakpoints are never kept
        tops, rows = [], []
        for k, stop, prev, span in zip(firsts.tolist(), stops.tolist(), prevs, spans):
            s = bp[k:stop] - prev  # shift_origin
            s[0] = 0.0
            c = int(np.count_nonzero(s < span))  # restrict keeps these, then span
            # reversed_signal: breakpoints 0, span - s[c-1], ..., span - s[0]
            tops.append(span - s[c - 1 :: -1])
            rows.append(vals[k : k + c][::-1])
        tops.reverse()
        rows.reverse()
        starts = list(accumulate((len(r) for r in rows[:-1]), initial=0))
        tops = np.concatenate(tops)
        widths = tops.copy()
        widths[1:] -= tops[:-1]
        widths[starts] = tops[starts]  # a window's first width is its top - 0
        if (widths <= 0.0).any():
            raise SignalError("breakpoints must be strictly increasing")
        return widths, np.concatenate(rows), starts

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
        """u(t - ·) on the same window.

        A probe reverses in closed form: u(t - s) = (a e^{-μt}) e^{μs} is the
        probe of amplitude a e^{-μt} and parameter -μ.
        """
        if self.kind == "probe":
            return PiecewiseSignal(
                self.breakpoints, [self._probe_value(self.horizon)], "probe",
                -self.probe_mu,
            )
        bp = self.horizon - self.breakpoints[::-1]
        bp[0] = 0.0
        return PiecewiseSignal(
            bp, self.values[::-1], "piecewise", per_mode=self.per_mode
        )


def _powers(x: np.ndarray, K: int) -> np.ndarray:
    """Rows x^0, ..., x^{K-1} as a (K, n) array, by doubling: rows h..2h-1
    are rows 0..h-1 times x^h, so O(n·K) multiplies in O(log K) products and
    at most about 2 log2(K) roundings per entry."""
    P = np.empty((K, x.size), dtype=x.dtype)
    P[0] = 1.0
    step, h = x, 1
    while h < K:
        r = min(h, K - h)
        np.multiply(P[:r], step, out=P[h : h + r])
        h += r
        if h < K:
            step = step * step
    return P


def _grid_grams(lams, weights, coeffs, t: float, n_pieces: int) -> np.ndarray:
    """The phase-search Grams G_j = M_j* diag(w) M_j, M_j = diag(b_j) E, of
    every column b_j of ``coeffs`` (n×m) on the uniform grid s_k = kΔ,
    Δ = t/K, K = ``n_pieces``; returns an (m, K, K) array.

    On that grid E[n, k] = e^{λ_n s_k} Δ h(λ_nΔ) = ρ_n^k e_n, with ρ_n =
    e^{λ_nΔ} and e_n = Δ h(λ_nΔ), so

        ``G_j[k, k+d] = Σ_n c_nj a_n^k ρ_n^d``,  a_n = |ρ_n|²,
        c_nj = w_n |b_nj|² |e_n|²,

    and G_j is Hermitian.  That is one exp and one :func:`_h` per mode, the
    powers by :func:`_powers` (O(n·K) multiplies, no O(n·K) exponentials),
    and for all m columns at once one real product per block of modes,
    [Re ρ^d; Im ρ^d] times [c_j a^k] transposed: O(n·m·K²) time at most.

    A power with |ρ^k|² below 2^-300 is set to 0: every term it carries is
    below 2^-300 of the diagonal entry G_j[0, 0] = Σ_n c_nj, and subnormal
    operands would slow the product several-fold.  A mode with
    Re λΔ < -110 has |ρ|² < e^-220 < 2^-300, so it takes no exp: its ρ is
    0, the same flushed powers.  The modes run from the
    slowest decay to the fastest, and a block keeps only the powers its
    slowest mode keeps alive, L ≤ K of them, with about ``_GRID_ENTRIES``
    real entries over all its arrays.  On a spectrum whose decay spreads
    over decades most modes keep a few powers, so the product shrinks from
    O(m·K²) to O(m·L²) per mode, and memory stays O(m·K² + block).
    """
    K, m = n_pieces, coeffs.shape[1]
    dt = t / K
    order = np.argsort(lams.real)[::-1]  # slowest decay first
    mom = np.zeros((2, K, m, K))  # [Re/Im, d, j, k]
    budget = -0.5 * math.log(_FLUSH)  # a^k >= _FLUSH while k·(-Re λ)Δ <= budget
    i = 0
    while i < lams.size:
        rate = -float(lams.real[order[i]]) * dt  # the block's slowest decay
        L = min(K, int(budget / rate) + 2) if rate * K > budget else K  # one spare
        idx = order[i : i + max(1, _GRID_ENTRIES // ((m + 8) * (L + 1)))]
        i += idx.size
        w = lams[idx] * dt
        with np.errstate(under="ignore"):
            rho = np.zeros_like(w)
            live = w.real >= -_DEAD_RATE
            rho[live] = np.exp(w[live])
            P = _powers(rho, L)
            e = _h(w)
            we = weights[idx] * dt * dt * (e.real**2 + e.imag**2)  # w_n |e_n|²
            cb = coeffs[idx]
            c = (cb.real**2 + cb.imag**2) * we[:, None]
            pa = P.real**2 + P.imag**2  # a^k = |ρ^k|²
            dead = pa < _FLUSH
            pa[dead] = 0.0
            P[dead] = 0.0
            S = np.concatenate([P.real, P.imag])  # rows Re ρ^d, then Im ρ^d
            R = np.empty((m, L, idx.size))
            for j in range(m):
                np.multiply(pa, c[:, j], out=R[j])
            mom[:, :L, :, :L] += (S @ R.reshape(m * L, -1).T).reshape(2, L, m, L)
    mom = (mom[0] + 1j * mom[1]).transpose(1, 2, 0)  # [j, k, d]
    k, l = np.triu_indices(K)
    G = np.empty((m, K, K), dtype=complex)
    G[:, k, l] = mom[:, k, l - k]
    G[:, l, k] = G[:, k, l].conj()
    return G


def mode_integrals(lams, u: PiecewiseSignal) -> np.ndarray:
    """∫₀ᵗ e^{λ_n s} u(s) ds for every mode, in closed form.

    Returns shape (n,) for scalar-channel and per-mode signals (the latter
    pairs channel n with λ_n) and (n, m) for m-channel signals, column j
    from a scalar pass over channel j.  Piecewise signals are summed in
    Horner form from the last piece back, ``acc ← (acc + z_k acc) + c_k
    v_k`` with ``z_k = e^{λΔ_k} - 1`` and the piece weight c_k = Δ_k h(λΔ_k)
    taken as z_k/λ, in O(n·m·K) time and O(n·m) memory (see the module
    docstring).
    """
    lams = np.asarray(lams, dtype=complex)
    if u.kind == "probe":
        w = (lams - u.probe_mu) * u.horizon
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            out = u.values[0] * u.horizon * _h(w)
        bad = ~np.isfinite(out)
        if bad.any():
            lam = complex(lams.reshape(-1)[np.argmax(bad.reshape(-1))])
            raise SignalError(
                f"probe integral is not finite for lambda={lam}, mu={u.probe_mu} "
                f"on horizon {u.horizon:g}: e^((lambda-mu)t) overflows"
            )
        return out
    lams, widths = lams.reshape(-1), np.diff(u.breakpoints)
    if u.values.ndim == 1 or u.per_mode:
        (acc,) = _horner(lams, widths, u.values, u.per_mode)
        return acc
    out = np.empty((lams.size, u.n_channels), dtype=complex)
    for j, v in enumerate(u.values.T):  # one scalar pass per channel
        (out[:, j],) = _horner(lams, widths, v)
    return out


def _horner(lams, widths, vals, per_mode=False, starts=(0,), cols=None):
    """Yield Σ_k r_k e^{λ s_k} Δ_k h(λΔ_k) for each run of pieces, last run first.

    Run i is pieces ``starts[i]`` up to the next start (the last run ends
    with the last piece), with s_k measured from the run's first piece.  The
    pieces are taken from the last one back in one pass,
    ``acc ← (acc + z_k acc) + c_k r_k``, and acc restarts from zero after
    each run, whose sum is yielded as soon as the pass leaves it, so memory
    stays O(n) for any number of runs.  The piece weight c_k = Δ_k h(λΔ_k)
    is taken as z_k·(1/λ), equal in exact arithmetic since z_k = e^{λΔ_k} -
    1, with 1/λ formed once.  That keeps full accuracy while |λ|·min(Δ_k, 1)
    is a normal number, which also makes 1/λ finite; where it is not (λ = 0,
    subnormal λ, or a λΔ_k below 2^-1022, where z_k has lost digits) the
    piece keeps Δ_k h(λΔ_k).  That test is made per piece, so a run's bits
    do not depend on the other runs in the pass, and only for the modes
    that fail it at the pass's smallest width: when none do, each row is
    one product z_k·(1/λ).  z comes from one :func:`_expm1` call per block of
    at most ``_BLOCK_ENTRIES`` piece–mode pairs (one piece when n exceeds
    it), whichever runs the block spans.

    r_k is piece k's value row as one value per mode: v_k for a scalar or a
    per-mode signal, and Σ_j v_kj b_j for an m-channel signal mixed through
    the m rows b_j of ``cols`` (m×n), so the accumulator is n long, not n×m.
    The piece weights c_k·r_k of a block are taken as block products (see
    :func:`_horner_rows`), which round as the row products do, so a run's
    bits do not depend on the runs its block happens to span.

    Dead modes leave the row loop.  A mode is dead in a pass when e^{λΔ} - 1
    rounds to exactly -1 at the pass's smallest width, ``expm1(min Δ·Re λ)
    == -1``; then z_k = -1 at every width, and for a finite acc the step
    makes ``acc + z_k acc`` an exact +0, so a run's sum is its first piece
    alone, ``(z·(1/λ))·r + 0`` (the +0 turns a -0 into +0, as the loop
    does).  When more than half of the modes are dead, the row loop runs
    over the live ones only, compacted once per pass (O(n) to decide, no
    work added per row), and each run's sum is scattered from the loop's
    live part and the dead modes' closed form, taken with the loop's own
    products, so every bit is the whole loop's.  On spectra with |λ_k| ~ k
    most piece–mode pairs are dead: a pass then costs O(n_live·K + n·T)
    instead of O(n·K) for K pieces and T runs.  The whole loop still runs
    when every run is one piece (the loop then takes the closed form's
    steps), when one mode alone is live (a one-mode loop takes one-element
    row products, which round unlike the whole loop's block products) and
    when a dead product could overflow, so that an overflow still ends in
    the loop's NaN: a dead |1/λ| is below min Δ/36, and the bound
    m·max|v|·max|b|·min Δ/36 must stay far below the float range.
    """
    if per_mode and vals.shape[1] != lams.size:
        raise SignalError("per-mode signal does not match the mode count")
    split = len(widths) > len(starts)  # runs of one piece each: nothing to save
    with np.errstate(under="ignore", over="ignore"):
        if split:  # more than half dead, and not one lone live mode
            wmin = widths.min()
            dead = np.expm1(wmin * lams.real) == -1.0
            split = lams.size // 2 < int(np.count_nonzero(dead)) != lams.size - 1
        if split:  # and no dead product overflows: with |1/λ| < min Δ/36
            # (e^{min Δ·Re λ} < 2^-53), each is below 2·m·|v|·|b|·min Δ/36
            # for the largest |v| of vals and |b| of cols
            big = 1.0 if cols is None else len(cols) * np.abs(cols).max()
            split = np.isfinite(16.0 * big * np.abs(vals).max() * wmin)
    if not split:
        yield from _horner_rows(lams, widths, vals, starts, cols)
        return
    live, dead = np.flatnonzero(~dead), np.flatnonzero(dead)
    c0 = -1.0 / lams[dead]  # z·(1/λ) with z = -1
    cd = None if cols is None else cols.take(dead, axis=1)
    parts = _horner_rows(lams[live], widths, vals.take(live, axis=1) if per_mode else vals,
                         starts, None if cols is None else cols.take(live, axis=1))
    for s, part in zip(reversed(list(starts)), parts):
        out = np.empty(lams.shape, dtype=complex)
        out[live] = part
        c, v = c0.copy(), vals[s].take(dead) if per_mode else vals[s]
        with np.errstate(under="ignore"):  # the row loop's products, as it takes them
            if cd is not None:
                r = v[0] * cd[0]
                for j in range(1, len(cd)):
                    r += v[j] * cd[j]
                c *= r
            else:
                c *= v
            out[dead] = c + 0.0
        yield out


def _horner_rows(lams, widths, vals, starts, cols):
    """The row loop of :func:`_horner` over the modes ``lams``.

    Each block's piece weights c = z·(1/λ) and value rows r (mixed through
    ``cols``) are taken as products over the whole block, at most
    ``_BLOCK_ENTRIES`` entries, so each piece leaves the loop two row
    updates.  numpy's complex product gives a row of two or more entries the
    same bits in a block as alone (measured with numpy 2.4.6; the split test
    holds the kernel to the plain row loop).  A one-element product's bits
    depend on its operands' layout (scalar, broadcast or array), so a
    one-mode pass keeps the row products.
    """
    mag = np.abs(lams)
    no_inv = ~(mag * min(widths.min(), 1.0) >= _TINY)
    bad = np.flatnonzero(no_inv)
    if bad.size:  # re-tested per piece below; only λ = 0 or subnormal λ lack 1/λ
        no_inv = ~(mag >= _TINY)
    inv = 1.0 / np.where(no_inv, 1.0, lams)
    inv[no_inv] = 0.0
    starts = list(starts)
    acc = np.zeros(lams.shape, dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(lams.size, 1))
    per_row = lams.size == 1
    for hi in range(len(widths), 0, -step):
        lo = max(0, hi - step)
        done = []
        with np.errstate(under="ignore"):
            w = np.multiply.outer(widths[lo:hi], lams)
            z = _expm1(w)
            c = [zk * inv for zk in z] if per_row else z * inv
            if bad.size:
                for k in range(hi - lo):
                    dk = widths[lo + k]
                    sub = bad[~(mag[bad] * min(dk, 1.0) >= _TINY)]
                    c[k][sub] = dk * _h(w[k, sub], z[k, sub])
            if per_row:
                c = [_piece_terms(ck, v, cols) for ck, v in zip(c, vals[lo:hi])]
            else:
                c = _piece_terms(c, vals[lo:hi], cols)
            for k in range(hi - lo - 1, -1, -1):
                acc += z[k] * acc
                acc += c[k]
                if lo + k == starts[-1]:
                    done.append(acc)
                    acc = np.zeros(lams.shape, dtype=complex)
                    starts.pop()
        yield from done  # outside errstate: the caller runs between yields


def _piece_terms(c, v, cols):
    """The piece weights ``c`` times their value rows ``v``, in place: one
    piece (``c`` n long, ``v`` its value row) or a block (``c`` K×n, ``v`` K
    value rows).  A row is v for a scalar or per-mode signal, and Σ_j v_j b_j
    through the rows b_j of ``cols``."""
    if cols is not None:
        if c.ndim == 2:
            v = v.T[..., None]  # channel j of every piece as a K×1 column
        r = v[0] * cols[0]
        for j in range(1, len(cols)):
            r += v[j] * cols[j]
        v = r
    c *= v[:, None] if c.ndim > v.ndim == 1 else v  # a block's scalar values as a column
    return c


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


def _phase_search(
    Gs: np.ndarray, real_field: bool, restarts: int, iters: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Best unimodular v for sqrt(v* G v) on each G of an S×K×K stack of
    positive semidefinite Grams: returns the S best iterates as an S×K array
    and their S values.  One Gram is the stack of one.

    Iterates v ← phase(G v) (sign(Re G v) over the real field), which never
    decreases the objective, from the all-ones start and seeded random
    restarts; Gram s draws its starts from ``seeds[s]``, in the order of
    one restart at a time.  Every restart of every Gram is a column of one S×K×R stack, and
    an iteration is one product Gs @ V over all of them, so the Python steps
    are O(iters), not O(S·restarts·iters).  Each (Gram, restart) keeps its
    own stopping rule, as a mask: a step that gains less than 1e-14 relative
    is its last, and is taken only if it gains.  The first restart with the
    best value wins.  Each slice of the stacked product is the 2-D product
    G @ V bit for bit, so a Gram's result does not depend on the Grams
    stacked with it.
    """
    S, K = Gs.shape[:2]
    R = max(1, restarts)
    V = np.ones((S, K, R), dtype=complex)
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if real_field:
            starts = [rng.choice([-1.0, 1.0], size=K) for _ in range(R - 1)]
        else:
            starts = np.exp(2j * math.pi * rng.random((R - 1, K)))
        V[s, :, 1:] = np.transpose(starts)
    GV = Gs @ V
    cur = _phase_values(V, GV)
    live = np.ones((S, R), dtype=bool)
    for _ in range(max(1, iters)):
        if real_field:
            v_new = np.where(GV.real >= 0.0, 1.0, -1.0).astype(complex)
        else:
            absg = np.abs(GV)
            v_new = np.where(absg > 0.0, GV / np.where(absg > 0.0, absg, 1.0), V)
        g_new = Gs @ v_new
        new = _phase_values(v_new, g_new)
        up = live & (new > cur)
        live &= new > cur * (1.0 + 1e-14)
        V = np.where(up[:, None, :], v_new, V)
        GV = np.where(up[:, None, :], g_new, GV)
        cur = np.where(up, new, cur)
        if not live.any():
            break
    best = np.argmax(cur, axis=1)
    rows = np.arange(S)
    return V[rows, :, best], cur[rows, best]


def _phase_values(V: np.ndarray, GV: np.ndarray) -> np.ndarray:
    """sqrt(max(Re v* G v, 0)) for each column v of each V[s], given Gs @ V."""
    return np.sqrt(np.maximum(np.einsum("skr,skr->sr", V.conj(), GV).real, 0.0))


def random_signal(
    rng: np.random.Generator,
    horizon: float,
    n_pieces: int,
    n_channels: int = 1,
    complex_field: bool = True,
    amplitude: float = 1.0,
) -> PiecewiseSignal:
    """Seeded random piecewise signal with values in the amplitude ball.

    The horizon must be finite and hold ``n_pieces + 1`` distinct doubles in
    [0, horizon]; a positive double's bit pattern counts the doubles below
    it.  Breakpoints are drawn until that many are distinct, so without the
    check a subnormal horizon, or inf or NaN, would draw forever.  A piece
    or channel count whose draws do not fit in memory is a SignalError
    naming both counts.
    """
    if n_pieces < 1 or n_channels < 1 or not 0.0 < horizon < math.inf:
        raise SignalError(
            f"need a finite positive horizon, at least one piece and one channel, "
            f"got horizon={horizon!r}, n_pieces={n_pieces!r}, n_channels={n_channels!r}"
        )
    if n_pieces > int(np.float64(horizon).view(np.int64)):
        raise SignalError(
            f"horizon {horizon!r} holds fewer than {n_pieces + 1} distinct breakpoints"
        )
    try:
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
    except (MemoryError, ValueError) as exc:  # numpy's ValueError: beyond any address space
        raise SignalError(
            f"n_pieces {n_pieces} x channels {n_channels} does not fit in memory"
        ) from exc
    return PiecewiseSignal(bp, vals, "piecewise")
