"""High-level certificates for the diagonal laboratory.

Five families of checks:

* the resolvent (Weiss-type) condition ``sup_{Re l > 0} ||(p Re l)^{1/p}
  R(l, A_{-1}) B|| < oo``, evaluated on a six-decade half-plane grid plus
  per-mode optimizer candidates, with exact per-mode maxima alongside;
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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import QuadratureError, adaptive_interval
from .admissibility import (
    CertificateViolation,
    InputOperator,
    _best_route,
    _upper_routes,
    orlicz_adm_bound,
    output_map_l1,
    trajectory,
)
from .orlicz import OrliczError, SampledFunction, YoungFunction, luxemburg_norm, modular
from .signals import (
    PiecewiseSignal,
    _expm1,
    counterexample_intervals,
    random_signal,
)
from .spectral import (
    DiagonalGenerator,
    SpectralVector,
    basis_vector,
    generator_from_json,
    space_norm,
)

__all__ = [
    "CertifyError",
    "WeissReport",
    "SqfctReport",
    "weiss_check",
    "sqfct_constants",
    "weak_sqfct_estimate",
    "counterexample_run",
    "iss_certificate",
    "iiss_certificate",
    "shift_demo",
    "boundedness_probe",
]

_DIVERGENCE_THRESHOLD = 1e6


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

    def to_json(self) -> dict:
        return {
            "p": "inf" if math.isinf(self.p) else self.p,
            "value": self.value,
            "closed_form": self.closed_form,
            "n_grid": self.n_grid,
            "n_candidates": self.n_candidates,
            "skipped": self.skipped,
            "kind": self.kind,
        }


def _weiss_factor(p: float, re: np.ndarray) -> np.ndarray:
    if math.isinf(p):
        return np.ones_like(re)
    return (p * re) ** (1.0 / p)


def _resolvent_norms(
    A: DiagonalGenerator, B: InputOperator, pts: np.ndarray
) -> np.ndarray:
    """||R(lambda, A_{-1}) B|| at each point, exact per kind."""
    lam = A.eigenvalues
    dist = np.abs(pts[:, None] - lam[None, :])
    if B.kind == "aminus_full":
        return np.max(np.abs(lam)[None, :] / dist, axis=1)
    if B.kind == "aminus_x0":
        c = A.weights * np.abs(lam * B.data) ** 2
        return np.sqrt(dist**-2 @ c)
    m = B.data.shape[1]
    if m == 1:
        c = A.weights * np.abs(B.data[:, 0]) ** 2
        return np.sqrt(dist**-2 @ c)
    sw = np.sqrt(A.weights)
    out = np.empty(len(pts))
    for i, lam0 in enumerate(pts):
        out[i] = np.linalg.norm(sw[:, None] * B.data / (lam0 - lam)[:, None], ord=2)
    return out


def _weiss_per_mode_closed(A: DiagonalGenerator, B: InputOperator, p: float) -> float:
    """max over modes of the exact one-mode supremum (equals the full supremum
    for the diagonal form; a certified-achievable floor otherwise)."""
    lam = A.eigenvalues
    re = np.abs(lam.real)
    if B.kind == "aminus_full":
        mag = np.abs(lam)
    elif B.kind == "aminus_x0":
        mag = np.sqrt(A.weights) * np.abs(lam * B.data)
    else:
        # sigma_max of a one-row block is the row 2-norm, so this is attained
        mag = np.sqrt(A.weights) * np.linalg.norm(B.data, axis=1)
    if math.isinf(p):
        vals = mag / re
    elif p == 2.0:
        vals = mag / np.sqrt(2.0 * re)
    elif p == 1.0:
        vals = mag  # approached as Re lambda -> +oo
    else:
        raise CertifyError("p must be one of {1, 2, inf}")
    return float(np.max(vals))


def _weiss_candidates(A: DiagonalGenerator, p: float, cap: int = 1000) -> np.ndarray:
    lam = A.eigenvalues
    re = np.abs(lam.real)
    if lam.size > cap:
        score = np.abs(lam) / re
        idx = np.argpartition(-score, cap - 1)[:cap]
        lam, re = lam[idx], re[idx]
    if math.isinf(p):
        return 1e-9 * re + 1j * lam.imag
    if p == 1.0:
        return 1e9 * (1.0 + np.abs(lam)) + 1j * lam.imag
    return re + 1j * lam.imag


def weiss_check(
    A: DiagonalGenerator,
    B: InputOperator,
    p: float = math.inf,
    n_re: int = 25,
    n_im: int = 25,
) -> WeissReport:
    """Grid supremum of ||(p Re l)^{1/p} R(l, A_{-1}) B|| over Re l > 0.

    The grid spans Re l in [1e-6, 1e6] (log) and Im l in [-1e6, 1e6]
    (symmetric log plus the real axis); per-mode optimizer candidates are
    appended (capped at the 1000 most oblique modes) so coarseness cannot
    silently underestimate, and the exact per-mode maxima are reported
    alongside.  Points that land numerically on the spectrum are skipped and
    counted (impossible for the open right half-plane grid, kept as a guard).
    """
    if isinstance(p, str):
        p = math.inf if p in ("inf", "oo") else float(p)
    if not (math.isinf(p) or p in (1.0, 2.0)):
        raise CertifyError("p must be one of {1, 2, inf}")
    B.check_alignment(A)
    re = np.geomspace(1e-6, 1e6, n_re)
    im_half = np.geomspace(1e-6, 1e6, n_im)
    im = np.concatenate([-im_half[::-1], [0.0], im_half])
    pts = (re[:, None] + 1j * im[None, :]).ravel()
    cands = _weiss_candidates(A, p)
    allpts = np.concatenate([pts, cands])
    chunk = max(1, 4_000_000 // A.n_modes)
    best, skipped = 0.0, 0
    for i0 in range(0, len(allpts), chunk):
        blk = allpts[i0 : i0 + chunk]
        dist_spec = np.min(np.abs(blk[:, None] - A.eigenvalues[None, :]), axis=1)
        ok = dist_spec > 1e-12 * (1.0 + np.abs(blk))
        skipped += int(np.sum(~ok))
        blk = blk[ok]
        if blk.size:
            vals = _weiss_factor(p, blk.real) * _resolvent_norms(A, B, blk)
            best = max(best, float(np.max(vals)))
    return WeissReport(
        p=p,
        value=best,
        closed_form=_weiss_per_mode_closed(A, B, p),
        n_grid=len(pts),
        n_candidates=len(cands),
        skipped=skipped,
        kind=B.kind,
    )


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

    def to_json(self) -> dict:
        return {
            "k_lower": self.k_lower,
            "K_upper": self.K_upper,
            "phi0": self.phi0,
            "per_mode": list(self.per_mode),
            "quad_max_rel_err": self.quad_max_rel_err,
            "convention_evidence": {
                key: ("inf" if math.isinf(v) else v)
                for key, v in self.convention_evidence.items()
            },
        }


def sqfct_constants(
    A: DiagonalGenerator, rel_tol: float = 1e-8, quad_modes: int = 64
) -> SqfctReport:
    """Frame constants of t -> phi0(tA), phi0(z) = (-z)^{1/2} e^{z}.

    Per mode, ``int_0^oo |phi0(t lambda)|^2 dt/t = |lambda| int_0^oo
    e^{2 t Re lambda} dt = |lambda| / (2 |Re lambda|)``; the square function
    ``int ||phi0(tA)x||^2 dt/t`` is then ``sum w_n I_n |x_n|^2``, so k = min I_n
    and K = max I_n.  A quadrature cross-check runs on up to ``quad_modes``
    modes.  The opposite sign convention ``phi0(z) = (-z)^{1/2} e^{-z}`` makes
    the same integral infinite for Re lambda < 0; both numbers are reported
    for the first mode as evidence of the convention choice.
    """
    if not A.sector_angle < 0.5 * math.pi:
        raise CertifyError("square-function constants need sector angle < pi/2")
    lam = A.eigenvalues
    per_mode = np.abs(lam) / (2.0 * np.abs(lam.real))
    max_err = 0.0
    for lam_n, closed in list(zip(lam, per_mode))[:quad_modes]:
        mag, rate = abs(lam_n), -2.0 * lam_n.real

        def f(t: np.ndarray) -> np.ndarray:
            return mag * np.exp(-rate * t)

        top = 30.0 / rate
        quad = adaptive_interval(f, 0.0, top, rel_tol * closed * 0.1)
        max_err = max(max_err, abs(quad - closed) / closed)
    if max_err > rel_tol:
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


def weak_sqfct_estimate(
    A: DiagonalGenerator, n_samples: int = 20, seed: int = 0, rel_tol: float = 1e-8
) -> dict:
    """Empirical max of int_0^oo |<y, A T(s) x>| ds over unit pairs.

    Diagonal pairs (e_n, e_n) give the closed form |lambda_n|/|Re lambda_n| =
    sec(angle of the mode); seeded random unit pairs are added on top.  Taking
    the modulus inside the integral is exactly the phase-aligned worst input,
    so each pair's value is already input-optimal.  Quadrature failures skip
    the sample with a count.
    """
    rng = np.random.default_rng(seed)
    n = A.n_modes
    pairs: list[tuple[SpectralVector, SpectralVector, str]] = []
    for i in range(min(n, 16)):
        e = basis_vector(A, i)
        e = SpectralVector(e.coefficients / space_norm(A, e), "X")
        pairs.append((e, e, f"diagonal:{i}"))
    for i in range(n_samples):
        raw = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        x = SpectralVector(raw[0] / space_norm(A, SpectralVector(raw[0], "X")), "X")
        y = SpectralVector(raw[1] / space_norm(A, SpectralVector(raw[1], "X")), "X")
        pairs.append((x, y, f"random:{i}"))
    best, best_label, skipped = 0.0, "", 0
    for x, y, label in pairs:
        try:
            val = output_map_l1(A, y, x, rel_tol=rel_tol)
        except QuadratureError:
            skipped += 1
            continue
        if val > best:
            best, best_label = val, label
    return {
        "estimate": best,
        "best_pair": best_label,
        "n_pairs": len(pairs),
        "skipped": skipped,
    }


# ---------------------------------------------------------------------------
# Divergence construction
# ---------------------------------------------------------------------------


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
    construction (the resolvent grid runs on a leading block of modes, exact
    because the per-mode symbol value sqrt(1+k^2) is m-independent).
    """
    if M < 1:
        raise CertifyError("need at least one mode")
    t0 = time.perf_counter()
    z = 1.0 + 1j * k_bound
    with np.errstate(under="ignore"):
        sigma = float(abs(np.exp(-z) - np.exp(-0.5 * z)) ** 2)
    s1_real = (math.exp(-0.5) - math.exp(-1.0)) ** 2
    summands = np.full(M, sigma)
    s_cum = np.cumsum(summands)
    ms = np.arange(1, M + 1)
    theory = ms * sigma
    if checkpoints is None:
        checkpoints = [m for m in (1, 10, 100, 10000) if m <= M] or [M]
    cps = {int(m): float(np.sum(summands[:m])) for m in checkpoints}
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
        "rows": {"m": ms, "S_m": s_cum, "theory": theory},
        "checkpoints": cps,
        "per_column_upper": per_column,
        "per_column_uniform": True,
        "weiss": wr.to_json(),
        "n_modes_weiss": n_weiss,
        "intervals_head": table[: min(8, len(table))],
        "runtime_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# ISS / integral ISS
# ---------------------------------------------------------------------------


def _uniform_upper(A: DiagonalGenerator, B: InputOperator) -> float:
    """Best admissibility constant valid for every horizon: the upper-route
    table at t = inf, where the kernel route has its limit value."""
    route, upper = _best_route(_upper_routes(A, B, math.inf)[0])
    if route == "none":
        raise CertifyError(
            "no finite horizon-uniform admissibility bound for this operator"
        )
    return upper


def _envelope_trials(
    A: DiagonalGenerator,
    B: InputOperator,
    gain: Callable[[PiecewiseSignal], float],
    n_trials: int,
    horizon: float,
    seed: int,
    n_times: int,
) -> tuple[float, list[dict]]:
    """Seeded trials of ||x(t)|| <= e^{-delta t}||x0|| + gain(u on [0, t]).

    Each trial draws a random initial state of norm in [0.25, 2] and a random
    piecewise input, then checks the envelope at ``n_times`` equispaced
    times.  Returns the largest lhs/rhs ratio and the violations.
    """
    rng = np.random.default_rng(seed)
    m = B.n_inputs(A)
    times = np.linspace(horizon / n_times, horizon, n_times)
    max_ratio, violations = 0.0, []
    for trial in range(n_trials):
        raw = rng.normal(size=A.n_modes) + 1j * rng.normal(size=A.n_modes)
        x0 = SpectralVector(raw, "X")
        scale = float(rng.uniform(0.25, 2.0)) / max(space_norm(A, x0), 1e-300)
        x0 = SpectralVector(raw * scale, "X")
        u = random_signal(
            rng, horizon, int(rng.integers(2, 11)), n_channels=m,
            amplitude=float(rng.uniform(0.1, 3.0)),
        )
        x0n = space_norm(A, x0)
        for t in times:
            tf = float(t)
            lhs = space_norm(A, trajectory(A, B, x0, u, tf))
            rhs = math.exp(-A.delta * tf) * x0n + gain(u.restrict(tf))
            if rhs > 0.0:
                max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs + 1e-8:
                violations.append({"trial": trial, "t": tf, "lhs": lhs, "rhs": rhs})
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
        A, B, lambda window: slope * window.sup_norm(), n_trials, horizon, seed, n_times
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
    computed exactly from its piecewise profile.  The K-infinity function of
    the integral-ISS definition is not constructed — the certified statement
    is this admissibility envelope, which characterizes integral ISS.
    """
    x0_direction = np.asarray(x0_direction, dtype=complex)
    phi, C = orlicz_adm_bound(A, x0_direction, psi, n_verify=0)
    if horizon is None:
        horizon = 4.0 / A.delta

    def gain(window: PiecewiseSignal) -> float:
        mag = SampledFunction(window.breakpoints, np.abs(window.values))
        return C * luxemburg_norm(phi, mag)

    max_ratio, violations = _envelope_trials(
        A, InputOperator.aminus_x0(x0_direction), gain, n_trials, horizon, seed, n_times
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
    """integral_0^1 Phi(c s^a) ds by exact dyadic-level closed forms.

    Levels ``[2^{-j-1}, 2^{-j}]`` are integrated exactly (splitting at the
    finitely many s where ``c s^a`` crosses a density breakpoint of Phi); once
    the profile range sits inside a single segment for all deeper levels the
    remaining mass is a geometric/logarithmic tail in closed form.  Divergent
    cases report how many levels an escalating scan would need to push the
    partial sums past the 1e6 threshold — computed arithmetically, since the
    log-marginal case needs millions of levels.
    """
    segs = phi.segments
    bx = np.array([s.x0 for s in segs])

    def seg_index(x: float) -> int:
        return max(0, int(np.searchsorted(bx, x, side="right")) - 1)

    def seg_terms(i: int) -> tuple[float, float, float]:
        """Phi(c s^a) = A0 + B s^beta on segment i."""
        seg = segs[i]
        cum = phi(bx[i])
        if seg.kind == "power":
            rp1 = seg.r + 1.0
            A0 = cum - seg.c / rp1 * bx[i] ** rp1
            Bc = seg.c / rp1 * c**rp1
            return A0, Bc, a * rp1
        return cum - seg.c * bx[i], seg.c * c, a

    def piece_integral(p: float, q: float, i: int) -> float:
        A0, Bc, beta = seg_terms(i)
        if abs(beta + 1.0) < 1e-12:
            power_part = Bc * math.log(q / p)
        else:
            power_part = Bc / (beta + 1.0) * (q ** (beta + 1.0) - p ** (beta + 1.0))
        return A0 * (q - p) + power_part

    if a == 0.0 or c == 0.0:
        val = float(phi(c))
        return {"modular": val, "diverged": False, "levels_scanned": 0,
                "escalation_levels": None}
    total = 0.0
    j = 0
    while True:
        s_hi = 2.0**-j
        f_hi = c * s_hi**a
        # single-segment regime for this level and all deeper ones?
        if a < 0.0:
            regime = f_hi >= bx[-1]
        else:
            regime = len(segs) == 1 or f_hi <= bx[1]
        if regime:
            break
        s_lo = 0.5 * s_hi
        cuts = [s_lo, s_hi]
        for x0 in bx[1:]:
            s_cross = (x0 / c) ** (1.0 / a)
            if s_lo < s_cross < s_hi:
                cuts.append(float(s_cross))
        cuts = sorted(set(cuts))
        for p, q in zip(cuts[:-1], cuts[1:]):
            mid = math.sqrt(p * q)
            total += piece_integral(p, q, seg_index(c * mid**a))
        j += 1
        if j > 100_000:
            raise OrliczError("level walk failed to reach a single segment")
    # analytic tail over s in (0, 2^{-j}] inside one segment
    s_top = 2.0**-j
    i = seg_index(c * (0.5 * s_top) ** a)
    A0, Bc, beta = seg_terms(i)
    if beta + 1.0 > 1e-12:
        tail = A0 * s_top + Bc / (beta + 1.0) * s_top ** (beta + 1.0)
        return {"modular": total + tail, "diverged": False, "levels_scanned": j,
                "escalation_levels": None}
    # diverging power part; count the levels an escalating scan would need
    remaining = max(_DIVERGENCE_THRESHOLD - total, 0.0)
    if abs(beta + 1.0) <= 1e-12:
        increment = Bc * math.log(2.0)
        levels = j + int(math.ceil(remaining / increment))
    else:
        rho = 2.0 ** -(beta + 1.0)  # > 1
        first = piece_integral(0.5 * s_top, s_top, i)
        levels = j + int(
            math.ceil(math.log1p(remaining * (rho - 1.0) / first) / math.log(rho))
        )
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
    partial sums pass 1e6).
    """
    if isinstance(profile, SampledFunction):
        if profile.tail_rate is not None or profile.edges[-1] > 1.0 + 1e-12:
            raise CertifyError("sampled shift profiles live on (0, 1)")
        l1 = float(np.dot(np.abs(profile.values), profile.widths))
        mod = modular(phi, profile, 1.0)
        detail = {
            "modular": mod,
            "diverged": not math.isfinite(mod),
            "levels_scanned": 0,
            "escalation_levels": None,
        }
        kind = "samples"
    else:
        kind = profile.get("kind")
        if kind != "power":
            raise CertifyError(f"unknown shift profile kind {kind!r}")
        c, a = float(profile["coeff"]), float(profile["exponent"])
        if c < 0.0 or a <= -1.0:
            raise CertifyError("power profiles need coeff >= 0 and exponent > -1")
        l1 = c / (a + 1.0)
        detail = _power_profile_modular(c, a, phi)
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
    never being zero-class.
    """
    if rule.get("kind") != "ray":
        raise CertifyError("the probe wants a ray-rule spectrum")
    rows = []
    matched = {}
    for N in Ns:
        A = generator_from_json({**rule, "count": int(N)})
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
