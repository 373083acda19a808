"""High-level certificates for the diagonal laboratory.

Five families of checks:

* the resolvent (Weiss-type) condition ``sup_{Re l > 0} ||(p Re l)^{1/p}
  R(l, A_{-1}) B|| < oo``: in closed form for the diagonal form and for
  p = 1, on the imaginary axis for p = oo and on a six-decade half-plane grid
  for p = 2 (both with per-mode optimizer candidates), with exact per-mode
  maxima alongside;
* square-function constants ``k ||x||^2 <= int_0^oo ||phi0(tA) x||^2 dt/t <=
  K ||x||^2`` for ``phi0(z) = (-z)^{1/2} e^{z}``, where the per-mode integral
  is ``|lambda|/(2|Re lambda|)`` in closed form (the report also prints the
  ``e^{-z}`` sign convention's integral, which is +infinity on the open left
  half-plane — evidence for why this build fixes the sign this way);
* the divergence construction: channels supported on the disjoint intervals
  ``[1/(2|Re gamma_m|), 1/|Re gamma_m|]`` of a doubling subsequence make
  ``||Phi_1 u||^2`` grow linearly in the mode count while every per-column
  bound and the resolvent condition stay uniformly bounded;
* ISS / integral-ISS envelope verification: trajectory-wise checks of
  ``||x(t)|| <= e^{-delta t}||x0|| + mu ||u||_{L-infty}`` and
  ``||x(t)|| <= e^{-delta t}||x0|| + C ||u||_{E_Phi(0,t)}`` on seeded random
  trials (the K-infinity reparametrization of the integral-ISS definition is
  deliberately not constructed; the certificate's scope is the admissibility
  envelope that characterizes it);
* the L1 shift demo (left shift on L1(0,1), point observation at 0) and the
  bounded-generator probe ``sup_{||x||=1} ||T(t)x - x|| = max_n |e^{lambda_n
  t} - 1|``.

Everything is seeded, pure, and closed-form wherever a closed form exists;
quadrature appears only as a cross-check, never as the primary value.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import adaptive_interval
from .admissibility import (
    CertificateViolation,
    InputOperator,
    _best_route,
    _Stepper,
    _upper_routes,
    orlicz_adm_bound,
)
from .orlicz import SampledFunction, YoungFunction, luxemburg_norm, modular
from .signals import (
    _GRID_ENTRIES,
    PiecewiseSignal,
    _block_rows,
    _expm1,
    counterexample_intervals,
    random_signal,
)
from .spectral import (
    DiagonalGenerator,
    _weighted_norm,
    _weighted_norms,
    generator_from_json,
)

__all__ = [
    "CertifyError",
    "WeissReport",
    "SqfctReport",
    "weiss_check",
    "sqfct_constants",
    "counterexample_run",
    "iss_certificate",
    "iiss_certificate",
    "shift_demo",
    "boundedness_probe",
]

_DIVERGENCE_THRESHOLD = 1e6
_DIVERGENCE_ROWS = 4096  # divergence rows: every m up to here, log-spaced past it
_GAIN_FLOOR = 1e-9  # a later window's gain is at least (1 - this)·an earlier one's
_WEISS_CANDIDATES = 1000  # most per-mode optimizer candidates, the most oblique modes
_WEISS_RE = np.geomspace(1e-6, 1e6, 25)  # the plane's rows Re l (p = 2)
_WEISS_IM = np.concatenate([-_WEISS_RE[::-1], [0.0], _WEISS_RE])  # Im l of a row
_SQFCT_REL_TOL = 1e-8  # the quadrature cross-check's tolerance, relative
_SQFCT_QUAD_MODES = 64  # modes the quadrature cross-check runs on


class CertifyError(Exception):
    """Invalid certificate request."""


# ---------------------------------------------------------------------------
# Resolvent condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeissReport:
    p: float
    value: float
    closed_form: float
    n_grid: int
    n_candidates: int
    skipped: int
    kind: str
    route: str


def _weiss_factor(p: float, re: np.ndarray) -> np.ndarray:
    if math.isinf(p):
        return np.ones_like(re)
    return (p * re) ** (1.0 / p)


def _inverse_squares(dist: np.ndarray) -> np.ndarray:
    """1 / dist^2, in place of numpy's generic ``pow`` for ``dist**-2``.

    One temporary, not the two of ``1 / (dist * dist)``: at a block's size each
    is a fresh mapping whose page faults cost more than the division."""
    sq = dist * dist
    return np.divide(1.0, sq, out=sq)


def _check_finite(values: np.ndarray | float) -> None:
    if not np.isfinite(values).all():
        raise CertifyError("a squared resolvent norm is beyond the float range")


def _resolvent_norms(
    A: DiagonalGenerator, B: InputOperator
) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a points-by-modes block ``dist`` of |mu - lambda_n| to
    ||R(mu, A_{-1}) B|| at each of its points, for a finite-rank B; the
    per-mode data is formed once, for every block.

    For m >= 2 columns the squared norm at mu is the largest eigenvalue of
    the m x m Gram G(mu) = sum_n w_n conj(b_n) b_n^T / |mu - lambda_n|^2,
    taken for every point of the block by one real product with ``dist``.
    The rows are taken times 2^-e, e the exponent of the largest row norm
    sqrt(w_n) ||b_n|| (none for e <= 0), so their squares fit in a float,
    and the norms times 2^e: a power of two moves no bit of an in-range
    number.  A sum beyond the float range is a :class:`CertifyError`, not
    a NaN or an eigensolver failure; a norm beyond it reads inf."""
    cols = B._coefficients(A)
    m = cols.shape[1]
    # a row norm beyond the float range reads inf, e = 0: the sums are refused
    with np.errstate(over="ignore", invalid="ignore"):
        e = max(math.frexp(float(np.max(_mode_magnitudes(A, B), initial=0.0)))[1], 0)
        rows = cols * math.ldexp(1.0, -e)
        if m == 1:
            terms = A.weights * np.abs(rows[:, 0]) ** 2
        else:
            outer = A.weights[:, None, None] * rows.conj()[:, :, None] * rows[:, None, :]
            # complex entries as (re, im) float pairs: one real product for the block
            terms = np.ascontiguousarray(outer.reshape(len(rows), m * m)).view(float)

    def norms(dist: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _inverse_squares(dist) @ terms
            _check_finite(sums)
            if m > 1:
                sums = np.linalg.eigvalsh(sums.view(complex).reshape(len(sums), m, m))[:, -1]
            return np.ldexp(np.sqrt(np.maximum(sums, 0.0)), e)

    return norms


def _mode_magnitudes(A: DiagonalGenerator, B: InputOperator) -> np.ndarray:
    """|lambda_n| for ``aminus_full``, else sqrt(w_n) ||b_n||: the size of
    mode n's row of R(mu, A_{-1}) B times |mu - lambda_n|.  A row whose
    squares overflow is retaken divided by its largest entry and scaled
    back, so a magnitude is inf only where it is beyond the float range."""
    if B.kind == "aminus_full":
        return np.abs(A.eigenvalues)
    cols = B._coefficients(A)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(cols, axis=1)
        bad = np.isinf(out)
        if bad.any():
            big = cols[bad]
            top = np.maximum(np.abs(big.real).max(axis=1), np.abs(big.imag).max(axis=1))
            out[bad] = top * np.linalg.norm(big / top[:, None], axis=1)
        return np.sqrt(A.weights) * out


def _weiss_per_mode_closed(A: DiagonalGenerator, B: InputOperator, p: float) -> float:
    """max over modes of the exact one-mode supremum (equals the full supremum
    for the diagonal form; a certified-achievable floor otherwise)."""
    re = np.abs(A.eigenvalues.real)
    # sigma_max of a one-row block is the row 2-norm, so this is attained
    mag = _mode_magnitudes(A, B)
    with np.errstate(over="ignore"):  # inf: the supremum is beyond the float range
        if math.isinf(p):
            vals = mag / re
        elif p == 2.0:
            vals = mag / np.sqrt(2.0 * re)
        else:
            vals = mag  # p = 1: approached as Re lambda -> +oo
    return float(np.max(vals))


def _weiss_row_bounds(
    A: DiagonalGenerator, B: InputOperator, p: float, re: np.ndarray
) -> np.ndarray:
    """An upper bound on (p r)^{1/p} ||R(mu, A_{-1}) B|| over the whole line
    Re mu = r, for each r in ``re``, for a finite-rank B.

    On that line |mu - lambda_n| >= r + |Re lambda_n|, so every row of the
    resolvent is at most t_n = mag_n / (r + |Re lambda_n|), and the norm is
    at most ||t||_2 (the Gram's largest eigenvalue is at most its trace)."""
    mag = _mode_magnitudes(A, B)
    re_abs = np.abs(A.eigenvalues.real)
    out = np.empty(len(re))
    step = _block_rows(len(mag), _GRID_ENTRIES)
    with np.errstate(over="ignore"):  # an inf bound keeps its row
        for i in range(0, len(re), step):
            out[i : i + step] = np.linalg.norm(mag / (re[i : i + step, None] + re_abs), axis=1)
        return _weiss_factor(p, re) * out


def _weiss_candidates(A: DiagonalGenerator, p: float) -> np.ndarray:
    """Where each of the (at most 1000) most oblique modes alone peaks:
    i Im lambda_n on the axis (p = oo), |Re lambda_n| + i Im lambda_n (p = 2)."""
    lam = A.eigenvalues
    re = np.abs(lam.real)
    if lam.size > _WEISS_CANDIDATES:
        score = np.abs(lam) / re
        idx = np.argpartition(-score, _WEISS_CANDIDATES - 1)[:_WEISS_CANDIDATES]
        lam, re = lam[idx], re[idx]
    return (0.0 if math.isinf(p) else re) + 1j * lam.imag


def weiss_check(
    A: DiagonalGenerator, B: InputOperator, p: float = math.inf
) -> WeissReport:
    """sup over Re l > 0 of ||(p Re l)^{1/p} R(l, A_{-1}) B||, exact where it
    is known in closed form.  ``route`` names how it was found:

    * ``"closed-form"``, in O(n): for ``aminus_full`` the resolvent is
      diagonal, so the supremum is the largest one-mode supremum,
      ``closed_form`` itself, at every p.  For p = 1 and finite rank,
      Re l / |l - lambda_n| < 1 rises to 1 as Re l -> oo, so the supremum is
      sqrt(lambda_max(sum_n w_n conj(b_n) b_n^T)), approached and not
      attained: one O(n m^2) sum and one m x m ``eigvalsh``.  ``n_grid`` and
      ``n_candidates`` are 0.
    * ``"axis"``, p = oo and finite rank: each term
      w_n conj(b_n) b_n^T / |l - lambda_n|^2 decreases in Re l in the Loewner
      order, so the supremum is the limit on the imaginary axis, where the
      norm is continuous (no eigenvalue lies on it).  One row Re l = 0 is
      evaluated: the 51 Im l of a grid row (0 and +-10^k, k = -6 .. 6 in 24
      log steps) plus the candidates i Im lambda_n of the 1000 most oblique
      modes.  Each point dominates every half-plane point above it, so the
      value is at least that of a half-plane grid with those Im l, at
      O(n (candidates + 51)).
    * ``"plane"``, p = 2 and finite rank: a 25 x 51 grid (Re l log-spaced in
      [1e-6, 1e6], the same Im l) plus the candidates
      |Re lambda_n| + i Im lambda_n.  The candidates are evaluated first;
      then the rows Re l = r run in order of decreasing row bound
      (``_weiss_row_bounds``, one O(n) pass per row), and a row is left out
      when its bound times 1 + 1e-9 is below the best value so far (the
      margin covers the rounding of the bound and of the norms) and the
      on-spectrum guard provably cannot fire on it:
      r + min |Re lambda_n| > 1e-12 (1 + max |l|) over the row.  A row left
      out cannot hold the maximum, so the best point and ``skipped`` are
      those of every point, at O(n (candidates + 51 rows kept)).

    On the axis and the plane ``value`` is the larger of the best evaluated
    point and ``closed_form``, each an achieved lower end of the supremum:
    the full Gram dominates each one-mode term in the Loewner order, so
    ``value`` >= ``closed_form`` even where the guard below skips the
    points near a mode's peak.  A point within 1e-12 (1 + |l|) of
    the spectrum on the plane, or 1e-150 (1 + |l|) on the axis (where that
    only keeps 1 / |l - lambda_n|^2 finite), is skipped and counted in
    ``skipped``.  On every route a ``value`` beyond the float range is a
    :class:`CertifyError`, and so is a Gram sum beyond it
    (``_resolvent_norms``).  The points run in blocks of about
    ``_GRID_ENTRIES`` points·modes (at least 4 points), so the working set
    is about 2 MB, not O(points·modes).  Each block builds its
    points-by-modes distance matrix once; the guard and the resolvent norms
    both read it.  With m >= 2 columns the norms come from the m x m Gram of
    every point in one product with that matrix and one stacked
    ``eigvalsh``.  Points run in whole 4-point groups of the blocks of one
    pass over all points, so each norm is the same float as in that pass:
    the matrix-vector kernel takes points four at a time.  A grid point the
    guard drops shifts the rest of its run, which may move a later norm of
    that run in its last bit.
    """
    try:
        p = math.inf if p in ("inf", "oo") else float(p)
    except (TypeError, ValueError):
        raise CertifyError("p must be one of {1, 2, inf}") from None
    if not (math.isinf(p) or p in (1.0, 2.0)):
        raise CertifyError("p must be one of {1, 2, inf}")
    B.check_alignment(A)
    closed = _weiss_per_mode_closed(A, B, p)
    if B.kind == "aminus_full" or p == 1.0:
        value = closed
        if B.kind != "aminus_full":
            # the Gram at unit distances, sum_n w_n conj(b_n) b_n^T; the max keeps
            # value >= closed_form (which one mode alone approaches) in the last bit
            value = max(closed, float(_resolvent_norms(A, B)(np.ones((1, A.n_modes)))[0]))
        _check_finite(value)
        return WeissReport(p, value, closed, 0, 0, 0, B.kind, "closed-form")
    lam = A.eigenvalues
    axis = math.isinf(p)
    re = np.zeros(1) if axis else _WEISS_RE
    # the on-spectrum guard; on the axis |l - lambda_n| >= |Re lambda_n| > 0
    # exactly, and the guard only keeps 1 / |l - lambda_n|^2 finite
    near = 1e-150 if axis else 1e-12
    pts = (re[:, None] + 1j * _WEISS_IM[None, :]).ravel()
    cands = _weiss_candidates(A, p)
    allpts = np.concatenate([pts, cands])
    norms = _resolvent_norms(A, B)
    chunk = _block_rows(A.n_modes, _GRID_ENTRIES)
    width = len(_WEISS_IM)
    # rows the guard cannot reach: |l - lambda_n| >= r + |Re lambda_n| there
    reach = near * (1.0 + np.abs(pts).reshape(len(re), width).max(axis=1))
    safe = re + np.min(np.abs(lam.real)) > reach
    fresh = np.ones(-(-len(allpts) // 4), dtype=bool)  # 4-point groups not yet run
    best, skipped = 0.0, 0

    def run(lo: int, hi: int) -> None:
        nonlocal best, skipped
        blk = allpts[lo:hi]
        dist = np.abs(blk[:, None] - lam[None, :])
        ok = dist.min(axis=1) > near * (1.0 + np.abs(blk))
        if not ok.all():
            skipped += int(np.sum(~ok))
            blk, dist = blk[ok], dist[ok]
        if blk.size:
            with np.errstate(over="ignore"):  # inf: refused below
                vals = _weiss_factor(p, blk.real) * norms(dist)
            best = max(best, float(np.max(vals)))

    def evaluate(lo: int, hi: int) -> None:
        """Points lo:hi in whole 4-point groups not yet run, block by block."""
        for start in range(lo // chunk * chunk, hi, chunk):
            a, b = max(lo, start), min(hi, start + chunk)
            g = a // 4 + np.flatnonzero(fresh[a // 4 : -(-b // 4)])
            if g.size:
                fresh[g[0] : g[-1] + 1] = False
                run(4 * g[0], min(4 * g[-1] + 4, len(allpts)))

    evaluate(len(pts), len(allpts))  # the candidates first
    bounds = _weiss_row_bounds(A, B, p, re)
    for i in np.argsort(-bounds, kind="stable"):
        if not (safe[i] and bounds[i] * (1.0 + 1e-9) < best):
            evaluate(i * width, (i + 1) * width)
    route = "axis" if axis else "plane"
    value = max(best, closed)
    _check_finite(value)
    return WeissReport(p, value, closed, len(pts), len(cands), skipped, B.kind, route)


# ---------------------------------------------------------------------------
# Square-function constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqfctReport:
    k_lower: float
    K_upper: float
    phi0: str
    per_mode: tuple
    quad_max_rel_err: float
    convention_evidence: dict


def sqfct_constants(A: DiagonalGenerator) -> SqfctReport:
    """Frame constants of t -> phi0(tA), phi0(z) = (-z)^{1/2} e^{z}.

    Per mode, ``int_0^oo |phi0(t lambda)|^2 dt/t = |lambda| int_0^oo
    e^{2 t Re lambda} dt = |lambda| / (2 |Re lambda|)``; the square function
    ``int ||phi0(tA)x||^2 dt/t`` is then ``sum w_n I_n |x_n|^2``, so k = min I_n
    and K = max I_n.  A quadrature cross-check runs on up to
    ``_SQFCT_QUAD_MODES`` modes, to ``_SQFCT_REL_TOL`` relative.  The
    opposite sign convention ``phi0(z) = (-z)^{1/2} e^{-z}`` makes the same
    integral infinite for Re lambda < 0; both numbers are reported for the
    first mode as evidence of the convention choice.
    """
    if not A.sector_angle < 0.5 * math.pi:
        raise CertifyError("square-function constants need sector angle < pi/2")
    lam = A.eigenvalues
    per_mode = np.abs(lam) / (2.0 * np.abs(lam.real))
    max_err = 0.0
    for lam_n, closed in list(zip(lam, per_mode))[:_SQFCT_QUAD_MODES]:
        mag, rate = abs(lam_n), -2.0 * lam_n.real

        def f(t: np.ndarray) -> np.ndarray:
            return mag * np.exp(-rate * t)

        top = 30.0 / rate
        quad = adaptive_interval(f, 0.0, top, _SQFCT_REL_TOL * closed * 0.1)
        max_err = max(max_err, abs(quad - closed) / closed)
    if max_err > _SQFCT_REL_TOL:
        raise CertifyError(
            f"per-mode quadrature disagrees with the closed form ({max_err:.2e})"
        )
    return SqfctReport(
        k_lower=float(np.min(per_mode)),
        K_upper=float(np.max(per_mode)),
        phi0="(-z)^(1/2)*exp(z)",
        per_mode=tuple(float(v) for v in per_mode),
        quad_max_rel_err=max_err,
        convention_evidence={
            "exp_plus_z_mode0": float(per_mode[0]),
            "exp_minus_z_mode0": math.inf,
        },
    )


# ---------------------------------------------------------------------------
# Divergence construction
# ---------------------------------------------------------------------------


def _whole(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number is a CertifyError."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer))
        or (isinstance(value, float) and value.is_integer())
    ):
        raise CertifyError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _divergence_ms(M: int, checkpoints: list[int]) -> np.ndarray:
    """The m of the rows worth writing: every m up to ``_DIVERGENCE_ROWS``
    modes; past that, ``_DIVERGENCE_ROWS`` log-spaced m (fewer once rounded)
    with the checkpoints and M added, sorted and each once."""
    if M <= _DIVERGENCE_ROWS:
        return np.arange(1, M + 1)
    spaced = np.rint(np.geomspace(1, M, _DIVERGENCE_ROWS)).astype(np.int64)
    return np.union1d(spaced, np.array([*checkpoints, M], dtype=np.int64))


def _partial_sums(sigma: float, M: int, ms: np.ndarray) -> np.ndarray:
    """S_m = sigma + ... + sigma (m terms, summed in order) at the sorted m of
    ``ms``, bit-identical to ``np.cumsum(np.full(M, sigma))[ms - 1]``.

    The sum runs in blocks of ``_GRID_ENTRIES`` terms, each block's cumsum
    starting from the previous block's last sum, so memory stays O(block +
    len(ms)) at any M while time stays O(M) adds.
    """
    out = np.empty(len(ms))
    block = np.full(_GRID_ENTRIES + 1, sigma)
    block[0] = 0.0  # S_0; then each block starts from the last one's sum
    for lo in range(0, M, _GRID_ENTRIES):
        hi = min(lo + _GRID_ENTRIES, M)
        sums = np.cumsum(block[: hi - lo + 1])  # sums[j] = S_{lo + j}
        kept = (ms > lo) & (ms <= hi)
        out[kept] = sums[ms[kept] - lo]
        block[0] = sums[-1]
    return out


def counterexample_run(
    k_bound: float = 0.0,
    M: int = 100,
    checkpoints: Sequence[int] | None = None,
) -> dict:
    """Linear growth of ||Phi_1 u||^2 against uniformly bounded column data.

    The spectrum is ``gamma_m = -2^{m-1} (1 + i k)`` (k = 0 gives the real
    axis case).  Channel m runs the indicator of ``[2^{-m}, 2^{-m+1}]``; the
    exponent products ``gamma_m * 2^{-m}`` are ``-(1+ik)/2`` exactly for every
    m, so each mode contributes the same summand

        ``sigma = |e^{-(1+ik)} - e^{-(1+ik)/2}|^2``

    and ``S_M = sum_{m<=M} sigma`` — evaluated from these exact products, so
    arbitrarily large M costs nothing and no ``2^{m}`` ever overflows.  The
    per-column bounds and the resolvent condition are computed on the same
    construction (the resolvent condition on a leading block of 900 modes, in
    closed form: the diagonal form's supremum is the largest per-mode value,
    and the per-mode symbol value sqrt(1+k^2) is m-independent).

    ``rows`` holds the partial sums S_m (summed in order) and ``theory`` =
    m·sigma at every m when M <= ``_DIVERGENCE_ROWS`` (4096); past that, at
    the m of ``rint(geomspace(1, M, 4096))``, the checkpoints and M, each once
    and in order, so at most about 4100 rows.  The sums run in blocks
    (:func:`_partial_sums`), so memory is O(block + rows) at any M.  A
    checkpoint value is ``np.sum`` of its m summands, a pairwise sum, while a
    row is the in-order sum, so the two may differ in their last bits.

    A non-finite ``k_bound``, a bool or non-integral M or checkpoint, and a
    checkpoint outside 1..M are each a :class:`CertifyError`.
    """
    if not math.isfinite(k_bound):
        raise CertifyError(f"k_bound must be finite, got {k_bound!r}")
    M = _whole("M", M)
    if M < 1:
        raise CertifyError("need at least one mode")
    t0 = time.perf_counter()
    z = 1.0 + 1j * k_bound
    with np.errstate(under="ignore"):
        sigma = float(abs(np.exp(-z) - np.exp(-0.5 * z)) ** 2)
    s1_real = (math.exp(-0.5) - math.exp(-1.0)) ** 2
    if checkpoints is None:
        checkpoints = [m for m in (1, 10, 100, 10000) if m <= M] or [M]
    checkpoints = [_whole("checkpoint", m) for m in checkpoints]
    for m in checkpoints:
        if not 1 <= m <= M:
            raise CertifyError(f"checkpoint {m} is outside 1..M for M = {M}")
    cps = {m: float(np.sum(np.broadcast_to(sigma, (m,)))) for m in checkpoints}
    ms = _divergence_ms(M, checkpoints)
    per_column = float(math.hypot(1.0, k_bound))  # = sec(sector angle)
    n_weiss = min(M, 900)
    gammas = -(2.0 ** np.arange(n_weiss)) * z
    table = counterexample_intervals(gammas)
    A = DiagonalGenerator(gammas)
    wr = weiss_check(A, InputOperator.aminus_full(), p=math.inf)
    return {
        "k_bound": k_bound,
        "complex": k_bound != 0.0,
        "M": M,
        "sigma": sigma,
        "s1_real": s1_real,
        "rows": {"m": ms, "S_m": _partial_sums(sigma, M, ms), "theory": ms * sigma},
        "checkpoints": cps,
        "per_column_upper": per_column,
        "per_column_uniform": True,
        "weiss": asdict(wr),
        "n_modes_weiss": n_weiss,
        "intervals_head": table[: min(8, len(table))],
        "runtime_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# ISS / integral ISS
# ---------------------------------------------------------------------------


def _uniform_upper(A: DiagonalGenerator, B: InputOperator) -> float:
    """Best admissibility constant valid for every horizon: the system's
    upper-route table at t = inf, where the kernel route has its limit value."""
    route, upper = _best_route(_upper_routes(A, B).at(math.inf)[0])
    if route == "none":
        raise CertifyError(
            "no finite horizon-uniform admissibility bound for this operator"
        )
    return upper


def _envelope_args(n_trials, horizon, n_times) -> tuple[int, int]:
    """``n_trials`` and ``n_times`` as ints of at least 1, after checking
    that a given horizon is finite and positive; a CertifyError otherwise."""
    n_trials, n_times = _whole("n_trials", n_trials), _whole("n_times", n_times)
    if n_trials < 1 or n_times < 1:
        raise CertifyError(
            f"need at least one trial and one sample time, got n_trials={n_trials}, "
            f"n_times={n_times}"
        )
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise CertifyError(f"the horizon must be finite and positive, got {horizon!r}")
    return n_trials, n_times


def _envelope_trials(
    A: DiagonalGenerator,
    B: InputOperator,
    gains: Callable[[PiecewiseSignal, np.ndarray], Callable[[int], float]],
    n_trials: int,
    horizon: float,
    seed: int,
    n_times: int,
) -> tuple[float, list[dict]]:
    """Seeded trials of ||x(t)|| <= e^{-delta t}||x0|| + gain(u on [0, t]).

    Each trial draws a random initial state of norm in [0.25, 2] and a random
    piecewise input, then checks the envelope at ``n_times`` equispaced
    times; ``gains(u, times)`` returns the gain of u's window [0, t_j] as a
    function of the window index j, called only where the gain is needed.
    The trials are drawn one after another, initial state then input, in
    chunks whose initial states fill about ``_GRID_ENTRIES`` reals, and
    every window of every trial in a chunk is integrated in one pass of one
    stepper built for those times (see :class:`_Stepper`): the semigroup
    factors are taken once per certificate, and P trials with K pieces in
    all cost O(n·(K + P·T)) for T = ``n_times`` and n modes, whatever the
    channel count, in memory bounded by the chunk.  The states are measured in
    row-wise norm passes, in blocks of as many states.  A state that left X
    counts as lhs = inf, a violation, and is never measured.

    A window's gain is taken only where it can change the result.  The
    windows [0, t_1] ⊂ ... ⊂ [0, t_T] are nested, so a gain never falls
    along a trial but for its evaluation error: a taken gain g leaves every
    later window a floor g·(1 - ``_GAIN_FLOOR``), which covers the
    ``rel_tol``/4 of :func:`luxemburg_norm` and the rounding.  A window whose
    lhs is at most low = e^{-delta t}||x0|| + floor, with lhs/low at most
    the running ratio, is then neither a violation nor a new largest ratio,
    since float addition and division are monotone: it is skipped.  Returns
    the largest lhs/rhs ratio and the violations, the same floats as with
    every gain taken.
    """
    rng = np.random.default_rng(seed)
    m, n = B.n_inputs(A), A.n_modes
    times = np.linspace(horizon / n_times, horizon, n_times)
    ts = times.tolist()
    decay = [math.exp(-A.delta * t) for t in ts]
    stepper = _Stepper(A, B, times)
    chunk = max(1, _GRID_ENTRIES // 2 // n)  # complex x0 rows in _GRID_ENTRIES reals
    x0s = np.empty((min(chunk, n_trials), n), dtype=complex)
    block = np.empty((min(chunk, n_trials * n_times), n), dtype=complex)
    max_ratio, violations = 0.0, []
    for first in range(0, n_trials, chunk):
        size = min(chunk, n_trials - first)
        x0ns, us = [], []
        for i in range(size):
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            scale = float(rng.uniform(0.25, 2.0)) / max(_weighted_norm(A.weights, raw), 1e-300)
            x0s[i] = raw * scale
            x0ns.append(_weighted_norm(A.weights, x0s[i]))
            us.append(random_signal(
                rng, horizon, int(rng.integers(2, 11)), n_channels=m,
                amplitude=float(rng.uniform(0.1, 3.0)),
            ))
        lhs, held = np.full(size * n_times, math.inf), []
        for q, (x, left) in enumerate(stepper.paths(x0s[:size], us)):
            if not left:
                block[len(held)] = x
                held.append(q)
            if held and (len(held) == len(block) or q == len(lhs) - 1):
                lhs[held] = _weighted_norms(A.weights, block[: len(held)])
                held = []
        lhs = lhs.reshape(size, n_times).tolist()
        for i, (u, x0n, ls) in enumerate(zip(us, x0ns, lhs)):
            g, floor = gains(u, times), 0.0
            for j, (t, d, l) in enumerate(zip(ts, decay, ls)):
                low = d * x0n + floor
                if l <= low and 0.0 < low and l / low <= max_ratio:
                    continue
                gain = float(g(j))
                floor = max(floor, gain * (1.0 - _GAIN_FLOOR))
                rhs = d * x0n + gain
                if rhs > 0.0:
                    max_ratio = max(max_ratio, l / rhs)
                if l > rhs + 1e-8:
                    violations.append({"trial": first + i, "t": t, "lhs": l, "rhs": rhs})
    return max_ratio, violations


def _verdict(result: dict, what: str, raise_on_violation: bool) -> dict:
    """The result, or a CertificateViolation carrying it as its dump."""
    violations = result["violations"]
    if violations and raise_on_violation:
        exc = CertificateViolation(
            f"{len(violations)} {what} envelope violations (first: {violations[0]})"
        )
        exc.dump = result
        raise exc
    return result


def iss_certificate(
    A: DiagonalGenerator,
    B: InputOperator,
    n_trials: int = 100,
    horizon: float | None = None,
    seed: int = 0,
    n_times: int = 9,
    adm_bound_override: float | None = None,
    raise_on_violation: bool = True,
) -> dict:
    """Trajectory-wise check of ||x(t)|| <= e^{-delta t}||x0|| + mu ||u||_oo.

    The gain slope is the best horizon-uniform admissibility upper bound
    (factorization / H-infty / kernel), so the inequality holds analytically:
    any violation is a build defect and raises by default.  The override
    parameter deliberately replaces the slope (used by the CLI's forced-
    failure path) — an undersized value must produce violations.
    """
    n_trials, n_times = _envelope_args(n_trials, horizon, n_times)
    if B.kind == "aminus_full":
        raise CertifyError("the full-diagonal form has no finite ISS gain")
    if horizon is None:
        horizon = 4.0 / A.delta
    if adm_bound_override is None:
        slope = _uniform_upper(A, B)
    else:
        slope = float(adm_bound_override)
    if not slope >= 0.0:
        raise CertifyError("the gain slope must be nonnegative")
    max_ratio, violations = _envelope_trials(
        A, B, lambda u, times: (slope * u._running_sup(times)).item, n_trials, horizon,
        seed, n_times,
    )
    result = {
        "bundle": {"M": 1.0, "omega": A.delta, "mu_slope": slope},
        "overridden": adm_bound_override is not None,
        "n_trials": n_trials,
        "n_times": n_times,
        "horizon": horizon,
        "seed": seed,
        "max_ratio": max_ratio,
        "violations": violations,
    }
    return _verdict(result, "ISS", raise_on_violation)


def iiss_certificate(
    A: DiagonalGenerator,
    x0_direction,
    psi: YoungFunction,
    n_trials: int = 50,
    horizon: float | None = None,
    seed: int = 0,
    n_times: int = 6,
    raise_on_violation: bool = True,
) -> dict:
    """Check ||x(t)|| <= e^{-delta t}||x0|| + C ||u||_{E_Phi(0,t)} on trials.

    (Phi, C) comes from the Orlicz admissibility certificate for
    ``B = A_{-1} x0``; the window Luxemburg norm of each trial input is
    computed exactly from its piecewise profile, cut from the trial's
    breakpoints with three short copies per window (no signal or validated
    profile built per window), and only for the windows whose gain can
    change the result (see :func:`_envelope_trials`): a later window whose
    state sits below the running ratio, with the floor left by the trial's
    last norm, needs neither its norm nor its profile.  The K-infinity
    function of the integral-ISS definition is not constructed — the
    certified statement is this admissibility envelope, which characterizes
    integral ISS.
    """
    n_trials, n_times = _envelope_args(n_trials, horizon, n_times)
    x0_direction = np.asarray(x0_direction, dtype=complex)
    phi, C = orlicz_adm_bound(A, x0_direction, psi, n_verify=0)
    if horizon is None:
        horizon = 4.0 / A.delta

    def gains(u: PiecewiseSignal, times: np.ndarray) -> Callable[[int], float]:
        return lambda j: C * luxemburg_norm(
            phi, SampledFunction._cut(*u._prefix_profile(times[j]))
        )

    max_ratio, violations = _envelope_trials(
        A, InputOperator.aminus_x0(x0_direction), gains, n_trials, horizon, seed, n_times
    )
    result = {
        "bundle": {"M": 1.0, "omega": A.delta, "C": C},
        "n_trials": n_trials,
        "horizon": horizon,
        "seed": seed,
        "max_ratio": max_ratio,
        "violations": violations,
        "theta_note": (
            "no K-infinity reparametrization is constructed; the certified "
            "statement is the E_Phi admissibility envelope"
        ),
    }
    return _verdict(result, "integral-ISS", raise_on_violation)


# ---------------------------------------------------------------------------
# L1 shift demo
# ---------------------------------------------------------------------------


def _power_profile_modular(c: float, a: float, phi: YoungFunction) -> dict:
    """integral_0^1 Phi(c s^a) ds in closed form between segment crossings.

    c s^a is monotone, so it meets each breakpoint x_i of Phi at most once, at
    log s_i = (log x_i - log c)/a.  Cut at the crossings inside (0, 1), every
    piece lies in one segment, where Phi(c s^a) = offset + coef c^expo
    s^(a expo) has a closed-form integral, taken in log space so that no
    power of an underflowing s is formed.  The bottom piece (0, s*], with s*
    the deepest crossing (1 without one), is the tail: it lies in the last
    segment for a < 0 and in the first for a > 0 (unless a crossing lies
    below double range), and it is finite when a expo > -1.

    ``levels_scanned`` is ceil(-log2 s*), the dyadic level [2^-j-1, 2^-j] at
    which a scan from s = 1 reaches the tail.  A divergent tail reports how
    many levels such a scan needs to push the partial sums past 1e6
    (``escalation_levels``), computed arithmetically from 2^-levels_scanned,
    since the log-marginal case needs millions of levels; a count beyond
    double range reads inf.
    """
    if a == 0.0 or c == 0.0:
        return {"modular": float(phi(c)), "diverged": False, "levels_scanned": 0,
                "escalation_levels": None}
    x, offset, coef, expo = phi.terms
    log_c, ln2 = math.log(c), math.log(2.0)
    with np.errstate(divide="ignore", over="ignore"):
        # log s where c s^a meets x_i (and x = oo), clipped at s = 1
        cross = np.minimum((np.log(np.append(x, np.inf)) - log_c) / a, 0.0).tolist()
        scale = (coef * np.exp(expo * log_c)).tolist()  # coef c^expo
    offset, expo = offset.tolist(), expo.tolist()

    def piece(i: int, lo: float, hi: float) -> float:
        """integral of Phi(c s^a) over s in [e^lo, e^hi] on segment i."""
        if lo >= hi:
            return 0.0
        g = a * expo[i] + 1.0
        try:
            if abs(g) < 1e-12:
                power = scale[i] * (hi - lo)
            else:
                power = scale[i] / g * (math.exp(g * hi) - math.exp(g * lo))
        except OverflowError:
            return math.inf
        return offset[i] * (math.exp(hi) - math.exp(lo)) + power

    total = 0.0
    # segments from s = 1 downwards, up to the tail piece (0, s*]
    for i in range(len(x)) if a < 0.0 else range(len(x) - 1, -1, -1):
        lo, hi = sorted((cross[i], cross[i + 1]))
        if lo == -math.inf:
            break
        total += piece(i, lo, hi)
    j = math.ceil(-hi / ln2)
    g = a * expo[i] + 1.0
    if g > 1e-12:
        return {"modular": total + piece(i, lo, hi), "diverged": False,
                "levels_scanned": j, "escalation_levels": None}
    # divergent tail: count the levels an escalating scan from 2^-j needs
    top = -j * ln2
    remaining = np.float64(max(_DIVERGENCE_THRESHOLD - total - piece(i, top, hi), 0.0))
    with np.errstate(all="ignore"):
        if g >= -1e-12:  # every level adds scale * ln 2
            count = remaining / (scale[i] * ln2)
        else:  # level masses grow by rho = 2^-g > 1
            rho = np.exp2(-g)
            count = np.log1p(remaining * (rho - 1.0) / piece(i, top - ln2, top)) / np.log(rho)
    # a scan short of the threshold needs a level, even when a level's mass
    # overflows and the count reads 0
    count = max(count, 1.0) if remaining > 0.0 else count
    levels = j + math.ceil(count) if math.isfinite(count) else math.inf
    return {"modular": math.inf, "diverged": True, "levels_scanned": j,
            "escalation_levels": levels}


def shift_demo(profile, phi: YoungFunction) -> dict:
    """Left shift on L1(0,1) with point observation at the origin.

    The observation trajectory of a profile f is s -> f(s), so the output map
    up to time 1 is f itself: ``||Psi_1 f||_{L1(0,1)} = ||f||_{L1(0,1)}``
    exactly — the observation is L1-admissible with constant 1 regardless of
    f.  Membership of f in the Orlicz class of the supplied Phi is a separate
    matter: the report carries ``integral_0^1 Phi(|f|)``, which is finite for
    every bounded profile but diverges e.g. for ``f(s) = s^{-1/2}/2`` against
    ``Phi(x) = x^2`` (the report then states the escalation depth at which
    partial sums pass 1e6).  A power profile ``{"kind": "power", "coeff": c,
    "exponent": a}`` is integrated in closed form between the points where
    c s^a crosses a breakpoint of Phi (see ``_power_profile_modular``).  A
    non-finite c or a, and a finite modular beyond double range (of either
    profile kind), raise a CertifyError.
    """
    if isinstance(profile, SampledFunction):
        if profile.tail_rate is not None or profile.edges[-1] > 1.0 + 1e-12:
            raise CertifyError("sampled shift profiles live on (0, 1)")
        l1 = float(np.dot(np.abs(profile.values), profile.widths))
        detail = {
            "modular": modular(phi, profile, 1.0),
            "diverged": False,  # a bounded profile: Phi(|f|) is bounded
            "levels_scanned": 0,
            "escalation_levels": None,
        }
        kind = "samples"
    else:
        kind = profile.get("kind")
        if kind != "power":
            raise CertifyError(f"unknown shift profile kind {kind!r}")
        c, a = float(profile["coeff"]), float(profile["exponent"])
        if not (math.isfinite(c) and math.isfinite(a)):
            raise CertifyError(
                f"power profiles need a finite coeff and exponent, got {c!r} and {a!r}"
            )
        if c < 0.0 or a <= -1.0:
            raise CertifyError("power profiles need coeff >= 0 and exponent > -1")
        l1 = c / (a + 1.0)
        detail = _power_profile_modular(c, a, phi)
    if not (detail["diverged"] or math.isfinite(detail["modular"])):
        raise CertifyError(
            f"the modular of the {kind} profile is finite but overflows double precision"
        )
    return {
        "profile_kind": kind,
        "l1": l1,
        "psi_l1_norm": l1,  # CT(s)f = f(s): the output map is the identity
        "l1_constant": 1.0,
        "orlicz_class_member": not detail["diverged"],
        "threshold": _DIVERGENCE_THRESHOLD,
        **detail,
    }


# ---------------------------------------------------------------------------
# Boundedness probe
# ---------------------------------------------------------------------------


def boundedness_probe(
    rule: dict, Ns: Sequence[int], t_grid: Sequence[float]
) -> dict:
    """sup_{||x||=1} ||T(t)x - x|| = max_{n<=N} |e^{lambda_n t} - 1| per (N, t).

    ``rule`` is a ray-rule generator description whose ``count`` is overridden
    per truncation.  Besides the supplied time grid, each truncation is probed
    at its matched scale t = 1/|lambda_N|, where the top mode contributes
    |e^{-e^{i angle}} - 1| (= 1 - 1/e on the real axis) independently of N:
    a uniform floor there is the numerical shadow of unbounded generators
    never being zero-class.  The rule's ``weights`` are dropped: they fit one
    count only, and max|e^{lambda_n t} - 1| does not depend on them.
    """
    if rule.get("kind") != "ray":
        raise CertifyError("the probe wants a ray-rule spectrum")
    rows = []
    matched = {}
    for N in Ns:
        A = generator_from_json({**rule, "count": int(N), "weights": None})
        lam = A.eigenvalues
        t_match = 1.0 / float(np.max(np.abs(lam)))
        for t in list(t_grid) + [t_match]:
            value = float(np.max(np.abs(_expm1(lam * float(t)))))
            rows.append(
                {"N": int(N), "t": float(t), "value": value,
                 "scale_matched": t == t_match}
            )
            if t == t_match:
                matched[int(N)] = value
    vals = list(matched.values())
    uniform_floor = bool(
        max(vals) - min(vals) <= 1e-9 * max(vals) and min(vals) > 0.1
    )
    t_min = min(t_grid) if len(t_grid) else None
    degrades = None
    if t_min is not None and len(Ns) >= 2:
        at_tmin = {r["N"]: r["value"] for r in rows if r["t"] == t_min}
        degrades = bool(at_tmin[max(Ns)] > 1.5 * at_tmin[min(Ns)])
    return {
        "rows": rows,
        "matched_scale_values": matched,
        "uniform_floor": uniform_floor,
        "zero_class_degrades": degrades,
        "bound": 2.0,
    }
