"""Input maps and two-sided admissibility bounds for diagonal models.

The central object is the input map

    ``Phi_t u = integral_0^t T(s) B u(s) ds``

with ``B`` either a finite family of columns in the extrapolation space, the
rank-one unbounded form ``B = A_{-1} x0``, or the full diagonal ``B = A_{-1}``
(input space = state space).  Time reversal of ``u`` turns this orientation
into the mild-solution kernel ``integral_0^t T(t-s) B u(s) ds`` and is an
isometry on every rearrangement-invariant signal norm, so all operator-norm
bounds apply to both conventions; :func:`trajectory` performs the reversal.

Norm estimates are two-sided by construction: lower bounds come from explicit
admissible inputs (phase search over piecewise-constant signals, constant
probes, disjoint-support chains), so they are certified-achievable; upper
bounds come from analytic routes (square-root factorization, diagonal H-infty
multipliers, kernel integrability), so they are certified-valid.  A report
whose lower bound exceeds its upper bound raises — that always indicates a
defect, never a tolerance issue.

The factorization route rests on writing ``A_{-1} = -((-A_{-1})^{1/2})^2``
and halving the time variable:

    ``Phi_t^{A_{-1}x0} u = -2 Phi_{t/2}^{(-A_{-1})^{1/2}} (u(2.) f)``,
    ``f(s) = (-A_{-1})^{1/2} T(s) x0``,

an identity checked to 1e-10 relative residual by :func:`factorization_check`
(two independent evaluation ladders).  Combining it with the exact constant
``K2 = sup_n (|lambda_n| / (2|Re lambda_n|))^{1/2}`` for the square root's
L2-admissibility gives the uniform-in-time bounds

    ``||Phi_t u|| <= 2 K2 ||f||_{L2(0,oo;X)} ||u||_{L-infty}``  and
    ``||Phi_t u|| <= 2 K2 ||g||_{L_Psi}^{1/2} ||u||_{L_Phi}``,

with ``g(s) = ||f(s/2)||^2``, ``Phi(x) = Psi~(x^2)`` and the Orlicz-Holder
constant 2 inside the square root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._frozen import frozen
from ._quad import QuadratureError, adaptive_interval
from .orlicz import (
    OrliczError,
    SampledFunction,
    YoungFunction,
    compose_sqrt,
    luxemburg_norm,
)
from .signals import (
    PiecewiseSignal,
    _expdiff_matrix,
    _expm1,
    mode_integrals,
    random_signal,
    worst_case_phases,
)
from .spectral import (
    DiagonalGenerator,
    SpectralVector,
    frac_power_apply,
    semigroup_apply,
    space_norm,
)

__all__ = [
    "AdmissibilityError",
    "CertificateViolation",
    "QuadratureError",
    "InputOperator",
    "AdmissibilityReport",
    "input_map",
    "trajectory",
    "output_map_l1",
    "l2_adm_constant",
    "linfty_bounds",
    "factorization_check",
    "orlicz_adm_bound",
    "infinite_time_sup",
    "zero_class_profile",
]

_REPORT_SLACK = 1e-9


class AdmissibilityError(Exception):
    """Base error for admissibility computations."""


class CertificateViolation(AdmissibilityError):
    """A certified bound failed re-verification (build defect by definition)."""


class InputOperator:
    """Control operator: explicit columns, ``A_{-1} x0``, or full ``A_{-1}``.

    ``kind`` is one of ``"columns"`` (matrix of column coefficients, input
    space C^m), ``"aminus_x0"`` (scalar input space, the canonical unbounded
    rank-one form), ``"aminus_full"`` (input space = state space).  Columns
    always lie in the extrapolation space at finite truncation; membership in
    ``ran A_{-1}`` is measured by the preimage norms ``||b_n/lambda_n||``.
    """

    def __init__(self, kind: str, data=None):
        if kind not in ("columns", "aminus_x0", "aminus_full"):
            raise AdmissibilityError(f"unknown input-operator kind {kind!r}")
        if kind == "columns":
            mat = np.asarray(data, dtype=complex)
            if mat.ndim == 1:
                mat = mat[:, None]
            if mat.ndim != 2 or mat.size == 0:
                raise AdmissibilityError("columns need a (modes, m) matrix")
            if not np.all(np.isfinite(mat.real) & np.isfinite(mat.imag)):
                raise AdmissibilityError("column coefficients must be finite")
            data = mat
        elif kind == "aminus_x0":
            vec = np.asarray(data, dtype=complex)
            if vec.ndim != 1 or vec.size == 0:
                raise AdmissibilityError("the rank-one form needs a vector x0")
            if not np.all(np.isfinite(vec.real) & np.isfinite(vec.imag)):
                raise AdmissibilityError("x0 must be finite")
            data = vec
        elif data is not None:
            raise AdmissibilityError("the full-diagonal form carries no data")
        self.kind = kind
        self.data = None if data is None else frozen(data)

    @classmethod
    def columns(cls, matrix) -> "InputOperator":
        return cls("columns", matrix)

    @classmethod
    def aminus_x0(cls, x0) -> "InputOperator":
        return cls("aminus_x0", x0)

    @classmethod
    def aminus_full(cls) -> "InputOperator":
        return cls("aminus_full")

    def n_inputs(self, A: DiagonalGenerator) -> int:
        if self.kind == "columns":
            return int(self.data.shape[1])
        return 1 if self.kind == "aminus_x0" else A.n_modes

    def check_alignment(self, A: DiagonalGenerator) -> None:
        if self.kind != "aminus_full" and self.data.shape[0] != A.n_modes:
            raise AdmissibilityError("operator data does not match the mode count")

    def preimage_norms(self, A: DiagonalGenerator) -> np.ndarray:
        """||A_{-1}^{-1} b_j||_X per column — the ran A_{-1} membership gauge."""
        self.check_alignment(A)
        lam = A.eigenvalues
        if self.kind == "columns":
            return np.sqrt(A.weights @ (np.abs(self.data / lam[:, None]) ** 2))
        if self.kind == "aminus_x0":
            return np.array([math.sqrt(float(A.weights @ np.abs(self.data) ** 2))])
        return np.sqrt(A.weights)


def input_map(
    A: DiagonalGenerator, B: InputOperator, u: PiecewiseSignal, t: float | None = None
) -> SpectralVector:
    """Phi_t u = integral_0^t T(s) B u(s) ds, exact per-mode closed forms.

    The result is tagged ``X`` when its state-space norm is finite at the
    current truncation (always the case numerically unless overflow), else
    ``Xm1`` with a warning.
    """
    B.check_alignment(A)
    if t is None:
        t = u.horizon
    if t > u.horizon * (1.0 + 1e-12):
        raise AdmissibilityError("signal is not defined on all of [0, t]")
    if t < u.horizon:
        u = u.restrict(t)
    lam = A.eigenvalues
    if B.kind == "columns":
        ints = mode_integrals(lam, u)
        if u.values.ndim == 1:
            if B.data.shape[1] != 1:
                raise AdmissibilityError("scalar signal against a multi-column B")
            coeff = B.data[:, 0] * ints
        else:
            if u.per_mode or u.values.shape[1] != B.data.shape[1]:
                raise AdmissibilityError("channel count does not match the columns")
            coeff = np.einsum("nm,nm->n", B.data, ints)
    elif B.kind == "aminus_x0":
        if u.values.ndim != 1:
            raise AdmissibilityError("the rank-one form takes a scalar channel")
        coeff = lam * B.data * mode_integrals(lam, u)
    else:
        if not (u.per_mode or u.kind == "probe"):
            raise AdmissibilityError(
                "the full-diagonal form needs a per-mode signal (input space = X)"
            )
        coeff = lam * mode_integrals(lam, u)
    vec = SpectralVector(coeff, "X")
    if math.isinf(space_norm(A, vec)):
        warnings.warn("input-map image left X numerically; tagging Xm1", stacklevel=2)
        vec = SpectralVector(coeff, "Xm1")
    return vec


def trajectory(
    A: DiagonalGenerator,
    B: InputOperator,
    x0: SpectralVector,
    u: PiecewiseSignal,
    t: float,
) -> SpectralVector:
    """Mild solution x(t) = T(t) x0 + integral_0^t T(t-s) B u(s) ds."""
    if not 0.0 < t <= u.horizon:
        raise AdmissibilityError("evaluation time must lie in (0, horizon]")
    free = semigroup_apply(A, t, x0)
    forced = input_map(A, B, u.restrict(t).reversed_signal(), t)
    return SpectralVector(free.coefficients + forced.coefficients, "X")


def output_map_l1(
    A: DiagonalGenerator,
    y: SpectralVector,
    x: SpectralVector,
    horizon: float = math.inf,
    rel_tol: float = 1e-8,
) -> float:
    """integral_0^horizon |<y, A T(s) x>| ds with the weighted pairing.

    The integrand ``|sum_n w_n conj(y_n) lambda_n e^{lambda_n s} x_n|`` decays
    like the slowest mode but can behave like 1/s near 0; the quadrature uses
    geometric subdivision from s = S/2**40 up to the slowest time scale S and
    doubling extension beyond, each piece integrated adaptively against a
    budget proportional to its exponential majorant mass.  The extension stops
    once the closed-form majorant tail drops below the relative tolerance.
    """
    coeff = A.weights * np.conj(y.coefficients) * A.eigenvalues * x.coefficients
    keep = np.abs(coeff) > 0.0
    if not np.any(keep):
        return 0.0
    lam = A.eigenvalues[keep]
    c = coeff[keep]
    cmag = np.abs(c)
    rate = -lam.real

    def f(s: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(np.multiply.outer(s, lam)) @ c)

    def majorant_tail(a: float) -> float:
        with np.errstate(under="ignore"):
            return float(np.sum(cmag * np.exp(-rate * a) / rate))

    def majorant_mass(a: float, b: float) -> float:
        if math.isinf(b):
            return majorant_tail(a)
        with np.errstate(under="ignore"):
            return float(np.sum(cmag * (np.exp(-rate * a) - np.exp(-rate * b)) / rate))

    S = 1.0 / float(np.min(rate))
    top = min(S, horizon)
    edges = [0.0]
    head = top * 2.0**-40
    while head < top:
        edges.append(head)
        head *= 2.0
    edges.append(top)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        tol = 0.1 * rel_tol * (majorant_mass(a, b) + 1e-300)
        total += adaptive_interval(f, a, b, tol)
    a = top
    for _ in range(80):
        if a >= horizon or majorant_tail(a) <= rel_tol * max(total, 1e-300):
            break
        b = min(2.0 * a, horizon)
        tol = 0.1 * rel_tol * (majorant_mass(a, b) + 1e-300)
        total += adaptive_interval(f, a, b, tol)
        a = b
    else:
        raise QuadratureError("exponential tail failed to close the error budget")
    return total


def l2_adm_constant(A: DiagonalGenerator) -> float:
    """Exact constant sup_n (|lambda_n|/(2 |Re lambda_n|))^{1/2}.

    Per mode, ``integral_0^oo |lambda_n| e^{2 Re lambda_n s} ds`` equals
    ``|lambda_n| / (2 |Re lambda_n|)``: the square of the best constant for the
    square root of the generator as an L2 observation/input operator.
    """
    if not A.sector_angle < 0.5 * math.pi:
        raise AdmissibilityError("L2 constant needs sector angle < pi/2")
    lam = A.eigenvalues
    return float(np.sqrt(np.max(np.abs(lam) / (2.0 * np.abs(lam.real)))))


@dataclass
class AdmissibilityReport:
    """Two-sided bound on ||Phi_t|| for one horizon and signal space.

    ``lower`` is certified-achievable (an explicit input attains it up to
    search slack), ``upper`` certified-valid; ``routes`` records every upper
    route with its value or the reason it does not apply.
    """

    t: float
    space: str
    lower: float
    upper: float
    route: str
    lower_route: str
    n_modes: int
    routes: dict = field(default_factory=dict)
    per_column: dict | None = None

    def __post_init__(self):
        cols = self.per_column or {}
        pairs = zip(cols.get("lower", ()), cols.get("upper", ()))
        for j, (lo, up) in enumerate([(self.lower, self.upper), *pairs]):
            if lo > up + _REPORT_SLACK:
                where = f" in column {j - 1}" if j else ""
                raise CertificateViolation(
                    f"lower bound {lo} exceeds upper bound {up}{where} "
                    f"({self.space}, t={self.t})"
                )

    def to_json(self) -> dict:
        out = {
            "t": self.t if math.isfinite(self.t) else "inf",
            "space": self.space,
            "lower": self.lower,
            "upper": self.upper if math.isfinite(self.upper) else "inf",
            "route": self.route,
            "lower_route": self.lower_route,
            "n_modes": self.n_modes,
            "routes": {
                name: {
                    "value": (v["value"] if math.isfinite(v["value"]) else "inf"),
                    "reason": v["reason"],
                }
                for name, v in self.routes.items()
            },
        }
        if self.per_column is not None:
            out["per_column"] = {
                key: [float(x) for x in vals] for key, vals in self.per_column.items()
            }
        return out


def _fac_column_constants(A: DiagonalGenerator, B: InputOperator) -> np.ndarray:
    """2 K2 ||f_j||_{L2(0,oo;X)} per column, f_j(s) = (-A)^{1/2} T(s) A^{-1} b_j."""
    lam = A.eigenvalues
    K2 = l2_adm_constant(A)
    if B.kind == "aminus_x0":
        fsq = float(
            np.sum(A.weights * np.abs(lam) * np.abs(B.data) ** 2 / (2.0 * np.abs(lam.real)))
        )
        return np.array([2.0 * K2 * math.sqrt(fsq)])
    if B.kind == "columns":
        fsq = (A.weights / (np.abs(lam) * 2.0 * np.abs(lam.real))) @ np.abs(B.data) ** 2
        return 2.0 * K2 * np.sqrt(fsq)
    # full diagonal: column n is A_{-1} e_n, preimage e_n
    fsq = A.weights * np.abs(lam) / (2.0 * np.abs(lam.real))
    return 2.0 * K2 * np.sqrt(fsq)


def _hinf_column_constants(A: DiagonalGenerator, B: InputOperator) -> np.ndarray:
    """||A_{-1}^{-1} b_j||_X / cos(sector angle) per column."""
    return B.preimage_norms(A) / math.cos(A.sector_angle)


def _upper_routes(
    A: DiagonalGenerator, B: InputOperator, t: float
) -> tuple[dict, np.ndarray]:
    """Upper routes for ||Phi_t|| at a horizon t (finite or ``math.inf``).

    Returns every route with its value or the reason it does not apply, and
    the best per-column upper bound.  Factorization and H-infty multiplier are
    horizon-uniform (per-column constants add over the channels); the kernel
    route ``integral_0^t ||T(s)B|| ds`` exists for bounded columns only.
    """
    hinf = _hinf_column_constants(A, B)  # checks the alignment first
    fac = _fac_column_constants(A, B)
    per_column = np.minimum(fac, hinf)
    if B.kind == "aminus_full":
        uniform = ("no uniform constant across the full diagonal "
                   "(per-column values reported)")
        routes = {
            "factorization": {"value": math.inf, "reason": uniform},
            "hinf-multiplier": {"value": math.inf, "reason": uniform},
            "kernel-L1": {
                "value": math.inf,
                "reason": "kernel norm ~ max_n |lambda_n| e^{Re lambda_n s} is not "
                "integrable uniformly at s = 0",
            },
        }
        return routes, per_column
    routes = {
        "factorization": {"value": float(np.sum(fac)), "reason": None},
        "hinf-multiplier": {"value": float(np.sum(hinf)), "reason": None},
    }
    if B.kind == "aminus_x0":
        routes["kernel-L1"] = {
            "value": math.inf,
            "reason": "||T(s) A_{-1} x0|| is not integrable at s = 0 for "
            "x0 outside the domain of A",
        }
        return routes, per_column
    hs = math.sqrt(float(A.weights @ np.sum(np.abs(B.data) ** 2, axis=1)))
    delta = A.delta
    reach = -math.expm1(-delta * t)  # delta * integral_0^t e^{-delta s} ds, 1 at inf
    routes["kernel-L1"] = {"value": hs * reach / delta, "reason": None}
    kernel = np.sqrt(A.weights @ np.abs(B.data) ** 2) * reach / delta
    return routes, np.minimum(per_column, kernel)


def _best_route(routes: dict) -> tuple[str, float]:
    """The finite route with the smallest value, or ("none", inf)."""
    finite = {k: v["value"] for k, v in routes.items() if math.isfinite(v["value"])}
    if not finite:
        return "none", math.inf
    route = min(finite, key=finite.get)
    return route, finite[route]


def _chain_lower(A: DiagonalGenerator, t: float) -> float:
    """Disjoint-support chain bound for B = A_{-1} (input space = X).

    Greedy subsequence of eigenvalues with |Re| at least 1/t and at least
    doubling |Re| steps; channel m runs the indicator of
    [1/(2|Re lambda|), 1/|Re lambda|] scaled to a unit state-space piece, so
    the squared norms add exactly:  sum_m |e^{lambda_m b_m} - e^{lambda_m a_m}|^2.
    """
    lam = A.eigenvalues
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


def _lower_bound(
    A: DiagonalGenerator,
    B: InputOperator,
    t: float,
    n_pieces: int,
    seed: int,
    restarts: int,
    iters: int,
) -> tuple[float, str, list[float] | None]:
    lam = A.eigenvalues
    if B.kind == "aminus_full":
        probe = float(np.max(np.abs(_expm1(lam * t))))
        chain = _chain_lower(A, t)
        if chain > probe:
            return chain, "closed-form(chain)", None
        return probe, "closed-form(probe)", None
    bp = np.linspace(0.0, t, n_pieces + 1)
    E = _expdiff_matrix(lam, bp)
    if B.kind == "aminus_x0":
        cols = (lam * B.data)[:, None]
    else:
        cols = B.data
    vals = []
    for j in range(cols.shape[1]):
        _, val = worst_case_phases(
            E, A.weights, cols[:, j], breakpoints=bp,
            restarts=restarts, iters=iters, seed=seed + j,
        )
        vals.append(val)
    return max(vals), "phase-search", vals


def linfty_bounds(
    A: DiagonalGenerator,
    B: InputOperator,
    t: float,
    n_pieces: int = 16,
    seed: int = 0,
    restarts: int = 8,
    iters: int = 200,
) -> AdmissibilityReport:
    """Two-sided bound on ||Phi_t||, sup-norm inputs to the state space.

    Upper routes: square-root factorization and diagonal H-infty multiplier
    (both horizon-uniform; per-column constants combine additively over the
    channels), and the kernel route ``integral_0^t ||T(s)B|| ds`` for bounded
    columns.  The full-diagonal form has no finite uniform route — its
    per-column bounds stay bounded while the operator norm may grow, which is
    exactly what the divergence construction exhibits — so its headline upper
    bound is infinite by design.
    """
    B.check_alignment(A)
    if not t > 0.0:
        raise AdmissibilityError("horizon must be positive")
    routes, col_uppers = _upper_routes(A, B, t)
    route, upper = _best_route(routes)
    per_column = {"upper": col_uppers.tolist()}
    lower, lower_route, col_lows = _lower_bound(
        A, B, t, n_pieces, seed, restarts, iters
    )
    if col_lows is not None:
        per_column["lower"] = col_lows
    return AdmissibilityReport(
        t=t,
        space="Linf",
        lower=lower,
        upper=upper,
        route=route,
        lower_route=lower_route,
        n_modes=A.n_modes,
        routes=routes,
        per_column=per_column,
    )


def factorization_check(
    A: DiagonalGenerator, x0, u: PiecewiseSignal, t: float | None = None
) -> dict:
    """Residual of the halved-time square-root factorization identity.

    Left side: ``Phi_t`` with ``B = A_{-1} x0`` in one shot.  Right side:
    ``-2 (-A)^{1/2} [ integral_0^{t/2} e^{2 lambda s} ((-lambda)^{1/2} x0)
    u(2s) ds ]`` — the inner integral runs over halved breakpoints at doubled
    rates and the square root is applied twice through the spectral ladder,
    so the two evaluation paths share no algebra beyond the exponentials.
    """
    if t is None:
        t = u.horizon
    x0 = np.asarray(x0, dtype=complex)
    lhs = input_map(A, InputOperator.aminus_x0(x0), u, t)
    half = u.restrict(t).scale_time(0.5)
    lam = A.eigenvalues
    inner = np.sqrt(-lam) * x0 * mode_integrals(2.0 * lam, half)
    rhs_vec = frac_power_apply(A, SpectralVector(inner, "X"))
    rhs = SpectralVector(-2.0 * rhs_vec.coefficients, "X")
    diff = SpectralVector(lhs.coefficients - rhs.coefficients, "X")
    lhs_norm = space_norm(A, lhs)
    residual = space_norm(A, diff) / max(lhs_norm, 1e-300)
    return {"residual": residual, "lhs_norm": lhs_norm, "t": t}


def _sampled_envelope(
    c: np.ndarray, rates: np.ndarray, n_grid: int
) -> SampledFunction:
    """Upper staircase envelope of g(s) = sum c_n e^{-rates_n s} with tail."""
    delta_min = float(np.min(rates))
    delta_max = float(np.max(rates))
    S = 40.0 / delta_min
    s_min = min(1e-3 / delta_max, S * 1e-9)
    edges = np.concatenate([[0.0], np.geomspace(s_min, S, n_grid)])
    with np.errstate(under="ignore"):
        vals = np.exp(-np.multiply.outer(edges[:-1], rates)) @ c
    return SampledFunction(edges, vals, tail_rate=delta_min)


def orlicz_adm_bound(
    A: DiagonalGenerator,
    x0,
    psi: YoungFunction,
    n_verify: int = 50,
    seed: int = 0,
    horizons: Sequence[float] | None = None,
    n_grid: int = 2048,
) -> tuple[YoungFunction, float]:
    """Orlicz-space admissibility certificate for ``B = A_{-1} x0``.

    Returns ``Phi(x) = Psi~(x^2)`` and the constant

        ``C = 2 K2 ||g||_{L_Psi}^{1/2}``,
        ``g(s) = sum_n w_n |lambda_n| |x0_n|^2 e^{s Re lambda_n}``,

    valid for every horizon: ``||Phi_t u|| <= C ||u||_{L_Phi(0,t)}``.  The
    Luxemburg norm of ``g`` is evaluated on a staircase upper envelope (so the
    certificate can only come out conservative), and the inequality is
    re-verified on seeded random inputs before the pair is returned; any
    violation raises :class:`CertificateViolation`.
    """
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != A.eigenvalues.shape:
        raise AdmissibilityError("x0 must align with the eigenvalues")
    phi = compose_sqrt(psi)
    c = A.weights * np.abs(A.eigenvalues) * np.abs(x0) ** 2
    keep = c > 0.0
    if not np.any(keep):
        return phi, 0.0
    try:
        g = _sampled_envelope(c[keep], -A.eigenvalues.real[keep], n_grid)
        gnorm = luxemburg_norm(psi, g)
    except OrliczError as exc:
        raise AdmissibilityError(
            f"the L_Psi norm of the kernel profile is not available ({exc}); "
            "construct a Young function for it with dvp_construct"
        ) from exc
    C = 2.0 * l2_adm_constant(A) * math.sqrt(gnorm)
    if n_verify > 0:
        if horizons is None:
            horizons = [0.5 / A.delta, 1.0 / A.delta, 2.0 / A.delta, 8.0 / A.delta]
        rng = np.random.default_rng(seed)
        Bop = InputOperator.aminus_x0(x0)
        for trial in range(n_verify):
            t = horizons[trial % len(horizons)]
            u = random_signal(rng, t, int(rng.integers(3, 13)))
            lhs = space_norm(A, input_map(A, Bop, u, t))
            mag = SampledFunction(u.breakpoints, np.abs(u.values))
            rhs = C * luxemburg_norm(phi, mag)
            if lhs > rhs + 1e-8:
                raise CertificateViolation(
                    f"certificate failed on trial {trial}: ||Phi_t u|| = {lhs} "
                    f"> C ||u||_Phi = {rhs} at t = {t}"
                )
    return phi, C


def _l2_norm_exact(A: DiagonalGenerator, B: InputOperator, t: float) -> float:
    """||Phi_t||_{L2 -> X}, exact: Gram eigenvalue or per-channel closed form."""
    lam = A.eigenvalues
    if B.kind == "aminus_full":
        kappa = -np.expm1(2.0 * lam.real * t) / (2.0 * np.abs(lam.real))
        return float(math.sqrt(float(np.max(np.abs(lam) ** 2 * kappa))))
    cols = (lam * B.data)[:, None] if B.kind == "aminus_x0" else B.data
    sw = np.sqrt(A.weights)
    denom = lam[:, None] + np.conj(lam)[None, :]
    kernel = -1.0 / denom if math.isinf(t) else _expm1(denom * t) / denom
    norm_sq = 0.0
    for j in range(cols.shape[1]):
        b = sw * cols[:, j]
        gram = np.outer(b, np.conj(b)) * kernel
        norm_sq += float(np.max(np.linalg.eigvalsh(gram)))
    return math.sqrt(max(norm_sq, 0.0))


def _l1_norm_exact(A: DiagonalGenerator, B: InputOperator) -> float:
    """||Phi_t||_{L1 -> X} = sup_{s <= t} ||T(s) B||, attained at s = 0."""
    lam = A.eigenvalues
    sw = np.sqrt(A.weights)
    if B.kind == "aminus_full":
        return float(np.max(np.abs(lam)))
    if B.kind == "aminus_x0":
        return float(np.linalg.norm(sw * lam * B.data))
    return float(np.linalg.norm(sw[:, None] * B.data, ord=2))


def infinite_time_sup(
    A: DiagonalGenerator,
    B: InputOperator,
    space: str = "Linf",
    horizons: Sequence[float] | None = None,
    n_pieces: int = 16,
    seed: int = 0,
) -> AdmissibilityReport:
    """sup_{t > 0} ||Phi_t|| for Z in {Linf, L2, L1}.

    For the exponentially stable diagonal model the L-infty upper routes are
    horizon-uniform, so the grid supremum of searched lower bounds sits below
    one fixed upper value (asserted through the report invariant).  The L2
    and L1 norms are exact closed forms (Gram spectrum, kernel supremum), so
    lower and upper coincide.
    """
    B.check_alignment(A)
    if horizons is None:
        horizons = [0.25 / A.delta, 1.0 / A.delta, 4.0 / A.delta]
    if space == "Linf":
        reports = [
            linfty_bounds(A, B, t, n_pieces=n_pieces, seed=seed) for t in horizons
        ]
        lower = max(r.lower for r in reports)
        lower_route = max(reports, key=lambda r: r.lower).lower_route
        routes, col_uppers = _upper_routes(A, B, math.inf)
        route, upper = _best_route(routes)
        per_column = {"upper": col_uppers.tolist()}
        if "lower" in reports[0].per_column:
            lows = np.max([r.per_column["lower"] for r in reports], axis=0)
            per_column["lower"] = lows.tolist()
        return AdmissibilityReport(
            t=math.inf, space="Linf", lower=lower, upper=upper, route=route,
            lower_route=lower_route, n_modes=A.n_modes, routes=routes,
            per_column=per_column,
        )
    if space == "L2":
        vals = [_l2_norm_exact(A, B, t) for t in horizons]
        vals.append(_l2_norm_exact(A, B, math.inf))
        v = max(vals)
        route = "channel-exact" if B.kind == "aminus_full" else "gram-exact"
        return AdmissibilityReport(
            t=math.inf, space="L2", lower=v, upper=v, route=route,
            lower_route=route, n_modes=A.n_modes,
            routes={route: {"value": v, "reason": None}},
        )
    if space == "L1":
        v = _l1_norm_exact(A, B)
        return AdmissibilityReport(
            t=math.inf, space="L1", lower=v, upper=v, route="kernel-sup",
            lower_route="kernel-sup", n_modes=A.n_modes,
            routes={"kernel-sup": {"value": v, "reason": None}},
        )
    raise AdmissibilityError(f"unknown signal space {space!r}")


def zero_class_profile(
    A: DiagonalGenerator,
    B: InputOperator,
    t_grid: Sequence[float],
    n_pieces: int = 8,
    seed: int = 0,
) -> tuple[list[AdmissibilityReport], dict]:
    """Bounds along a horizon grid shrinking to 0, with zero-class flags.

    ``zero_class_plausible``: the finite upper bounds shrink with the horizon
    (vanishing-at-0 behaviour, as for bounded columns).  ``obstructed``: the
    achievable lower bounds hold a floor as t -> 0 (the bounded-generator
    obstruction: constant probes keep sup_{||x||=1} ||T(t)x - x|| large as
    long as some |lambda_n| t stays of order 1).
    """
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0.0:
        raise AdmissibilityError("need a positive horizon grid")
    reports = [
        linfty_bounds(A, B, t, n_pieces=n_pieces, seed=seed, restarts=4, iters=80)
        for t in ts
    ]
    lowers = [r.lower for r in reports]
    uppers = [r.upper for r in reports]
    finite_uppers = all(math.isfinite(u) for u in uppers)
    plausible = bool(
        finite_uppers and uppers[0] <= 0.2 * max(uppers[-1], 1e-300)
    )
    obstructed = bool(
        lowers[0] > 1e-6 and lowers[0] >= 0.25 * max(lowers[-1], 1e-300)
    )
    flags = {
        "zero_class_plausible": plausible,
        "obstructed": obstructed,
        "smallest_t": ts[0],
        "lower_at_smallest_t": lowers[0],
        "upper_at_smallest_t": uppers[0] if finite_uppers else math.inf,
    }
    return reports, flags
