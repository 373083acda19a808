"""Input maps and two-sided admissibility bounds for diagonal models.

The central object is the input map

    ``Phi_t u = integral_0^t T(s) B u(s) ds``

with ``B`` either a finite family of columns in the extrapolation space, the
rank-one unbounded form ``B = A_{-1} x0``, or the full diagonal ``B = A_{-1}``
(input space = state space).  The rank-one form is the one column
``lambda x0`` of the first kind, so both share every finite-rank formula;
only the kernel-L1 route, infinite for x0 outside D(A), tells them apart.
Time reversal of ``u`` turns this orientation into the mild-solution kernel
``integral_0^t T(t-s) B u(s) ds`` and is an isometry on every
rearrangement-invariant signal norm, so all operator-norm bounds apply to
both conventions; :func:`trajectory` performs the reversal.

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
from itertools import accumulate
from typing import Sequence

import numpy as np

from ._frozen import frozen
from .orlicz import (
    OrliczError,
    SampledFunction,
    YoungFunction,
    compose_sqrt,
    luxemburg_norm,
)
from .signals import (
    _GRID_ENTRIES,
    PiecewiseSignal,
    _block_rows,
    _expm1,
    _grid_grams,
    _horner,
    _phase_search,
    mode_integrals,
    random_signal,
)
from .spectral import (
    DiagonalGenerator,
    SpectralVector,
    _check_aligned,
    _semigroup_factors,
    _weighted_norm,
    frac_power_apply,
    space_norm,
)

__all__ = [
    "AdmissibilityError",
    "CertificateViolation",
    "InputOperator",
    "AdmissibilityReport",
    "input_map",
    "trajectory",
    "l2_adm_constant",
    "linfty_bounds",
    "factorization_check",
    "orlicz_adm_bound",
    "infinite_time_sup",
    "zero_class_profile",
]

_REPORT_SLACK = 1e-9
_ROUNDOFF = 2.0**-53  # the unit roundoff u of float64
_PIVOT_BLOCK = 32  # most Schur columns one GEMM computes in _pivoted_cholesky


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
    ``A_{-1} x0`` is the one column ``lambda x0``: the finite-rank formulas
    read both kinds through :meth:`_coefficients` and :meth:`_preimages`, and
    only the kernel-L1 route (infinite for x0 outside D(A)) tells them apart.
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
        if self.kind == "aminus_full":
            return A.n_modes
        return 1 if self.data.ndim == 1 else int(self.data.shape[1])

    def check_alignment(self, A: DiagonalGenerator) -> None:
        if self.kind != "aminus_full" and self.data.shape[0] != A.n_modes:
            raise AdmissibilityError("operator data does not match the mode count")

    def _coefficients(self, A: DiagonalGenerator) -> np.ndarray:
        """The n×m extrapolation-space coefficients of a finite-rank B:
        ``data`` itself, or ``lambda x0`` as one column."""
        if self.kind == "aminus_x0":
            return (A.eigenvalues * self.data)[:, None]
        return self.data

    def _preimages(self, A: DiagonalGenerator) -> np.ndarray:
        """The n×m preimages A_{-1}^{-1} b_j of a finite-rank B: ``data /
        lambda``, or x0 itself as one column (exact, not lambda x0 / lambda)."""
        if self.kind == "aminus_x0":
            return self.data[:, None]
        return self.data / A.eigenvalues[:, None]

    def preimage_norms(self, A: DiagonalGenerator) -> np.ndarray:
        """||A_{-1}^{-1} b_j||_X per column — the ran A_{-1} membership gauge."""
        self.check_alignment(A)
        if self.kind == "aminus_full":
            return np.sqrt(A.weights)
        return np.sqrt(A.weights @ np.abs(self._preimages(A)) ** 2)


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
    scale, cols = _input_form(A, B, u)
    if cols is None:
        coeff = scale * mode_integrals(A.eigenvalues, u)
    else:
        (coeff,) = _horner(A.eigenvalues, np.diff(u.breakpoints), u.values, cols=cols)
    if _left_x(A, coeff):
        return SpectralVector(coeff, "Xm1")
    return SpectralVector(coeff, "X")


def _input_form(A: DiagonalGenerator, B: InputOperator, u: PiecewiseSignal):
    """How the mode integrals of ``u`` become the coefficients of Phi u,
    after checking that the channels of ``u`` fit ``B``: ``(scale, None)``
    when the coefficients are ``scale`` times the integrals of ``u`` (a
    scalar or per-mode signal), ``(None, cols)`` when an m-channel signal is
    mixed into one value per mode before integrating, Σ_j u_j(s) b_j with
    b_j the rows of ``cols`` (see :func:`_horner`)."""
    if B.kind == "aminus_full":
        if not (u.per_mode or u.kind == "probe"):
            raise AdmissibilityError(
                "the full-diagonal form needs a per-mode signal (input space = X)"
            )
        return A.eigenvalues, None
    cols = B._coefficients(A)
    if u.values.ndim == 1:
        if cols.shape[1] != 1:
            raise AdmissibilityError("scalar signal against a multi-column B")
        return cols[:, 0], None
    if u.per_mode or u.values.shape[1] != cols.shape[1]:
        raise AdmissibilityError("channel count does not match the columns")
    return None, np.ascontiguousarray(cols.T)


def _left_x(A: DiagonalGenerator, coeff: np.ndarray) -> bool:
    """True, with a warning, when an input-map image has no finite X norm."""
    if math.isinf(_weighted_norm(A.weights, coeff)):
        warnings.warn("input-map image left X numerically; tagging Xm1", stacklevel=3)
        return True
    return False


class _Stepper:
    """The mild solution of x' = Ax + Bu sampled at 0 < t_1 < ... < t_T.

    By the semigroup property, with t_0 = 0 and D_j = t_j - t_{j-1},

        ``x(t_j) = e^{lambda D_j} x(t_{j-1}) + Phi_{D_j} v_j``,

    where v_j is u(t_{j-1} + .) reversed on [0, D_j].  The factors
    e^{lambda D_j} are taken once per distinct span, when the stepper is
    built, and serve every path sampled at the same times.  For each path
    (x0, u) the integrals of all T windows come from one pass of the Horner
    kernel over the windows' pieces, with an m-channel input mixed through
    the columns of B into one value per mode before integrating, so a path
    costs O(n·(K + T)) for K pieces in O(n) memory (plus m multiply-adds per
    mode and piece for the mixing), with the e^w - 1 of its pieces taken in
    blocks and no signal or vector object per sample.  Every element goes
    through the float operations of the chained calls ``trajectory(A, B,
    x(t_{j-1}), u.shift_origin(t_{j-1}), D_j)``, so the states are bit for
    bit theirs.  A probe's windows are the probe's own closed-form shifts and
    reversals.
    """

    def __init__(self, A: DiagonalGenerator, B: InputOperator, times):
        B.check_alignment(A)
        self.A, self.B = A, B
        self.times = np.asarray(times, dtype=float).reshape(-1)
        self.prevs = np.concatenate([[0.0], self.times[:-1]])
        self.spans = self.times - self.prevs
        if not (np.isfinite(self.spans) & (self.spans > 0.0)).all():
            raise AdmissibilityError("evaluation time must lie in (0, horizon]")
        # per distinct span: equispaced samples repeat a few spans in their
        # last bits (3 for 9 samples, about 20 for 10^5)
        self.factors = {d: _semigroup_factors(A, d) for d in set(self.spans.tolist())}

    def states(self, x0: np.ndarray, u: PiecewiseSignal, left: bool = False):
        """Yield (x(t_j) coefficients, left X) for j = 1..T from x(0) = x0.

        ``left`` marks a state that left X (an image tagged ``Xm1``, with the
        warning of :func:`input_map`); it stays set from that sample on.
        """
        if not (self.spans <= u.breakpoints[-1] - self.prevs).all():
            raise AdmissibilityError("evaluation time must lie in (0, horizon]")
        for d, (forced, out) in zip(self.spans.tolist(), self._images(u)):
            left = out or left
            x = x0 * self.factors[d] + forced
            yield x, left
            x0 = x

    def _images(self, u: PiecewiseSignal):
        """(coefficients, left X) of each window's input-map image, in order."""
        A, B = self.A, self.B
        if u.kind == "probe" or len(self.spans) <= 1:
            # one window gains nothing from blocking; input_map runs the
            # same Horner kernel on it (and a probe integrates in closed form)
            for p, d in zip(self.prevs.tolist(), self.spans.tolist()):
                v = input_map(A, B, u.shift_origin(p).restrict(d).reversed_signal(), d)
                yield v.coefficients, v.scale == "Xm1"
            return
        scale, cols = _input_form(A, B, u)
        widths, vals, starts = u._windows(self.times)
        for ints in _horner(A.eigenvalues, widths, vals, u.per_mode, starts, cols):
            forced = ints if cols is not None else scale * ints
            yield forced, _left_x(A, forced)


def trajectory(
    A: DiagonalGenerator,
    B: InputOperator,
    x0: SpectralVector,
    u: PiecewiseSignal,
    t: float,
) -> SpectralVector:
    """Mild solution x(t) = T(t) x0 + integral_0^t T(t-s) B u(s) ds.

    The one-sample case of the package's stepper: the free part is
    e^{lambda t} x0 and the forced part the input map of ``u`` reversed on
    [0, t], O(n·K) for the K pieces of u on [0, t], in O(n) memory: an
    m-channel input is mixed through the m columns of B into one value per
    mode before it is integrated, never integrated channel by channel.  The
    ``iss``/``iiss`` envelopes and ``simulate`` sample whole paths through the
    same stepper, which carries the state from one sample time to the next
    and integrates each piece once, O(n·(K+T)) for T samples.

    The state is tagged ``Xm1`` when either part is (it left X numerically,
    see :func:`input_map`), else ``X``.
    """
    _check_aligned(A, x0)
    (x, left), = _Stepper(A, B, [t]).states(x0.coefficients, u, x0.scale == "Xm1")
    return SpectralVector(x, "Xm1" if left else "X")


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
    w = A.weights * np.abs(lam) / (2.0 * np.abs(lam.real))
    if B.kind != "aminus_full":  # the full diagonal's preimages are e_n
        w = w @ np.abs(B._preimages(A)) ** 2
    return 2.0 * l2_adm_constant(A) * np.sqrt(w)


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
    The greedy pick after |Re| = r is the first mode in ``argsort`` order
    with |Re| >= 2r(1 - 1e-9), found by ``searchsorted``: one jump per link
    of the chain, not one Python step per mode.
    """
    lam = A.eigenvalues
    order = np.argsort(-lam.real)
    rs = -lam.real[order]
    picked = []
    i = int(np.searchsorted(rs, 1.0 / t))
    while i < rs.size:
        picked.append(i)
        i = int(np.searchsorted(rs, 2.0 * rs[i] * (1.0 - 1e-9)))
    if not picked:
        return 0.0
    sel = lam[order[picked]]
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
    """Achievable lower bound on ||Phi_t||: the closed-form probe and chain
    for the full diagonal, else the best column's phase search over K =
    ``n_pieces`` equal pieces.

    The phase search runs on each column's Gram from
    :func:`signals._grid_grams`, which the uniform grid makes a sum of
    powers: O(n) exponentials where the dense n×K matrix took O(n·K), and one
    real product per block of modes for every column at once, O(n·m·K²)
    time at most.  Each search runs its restarts as one block, O(iters)
    Python steps where one restart at a time took O(restarts·iters).
    """
    lam = A.eigenvalues
    if B.kind == "aminus_full":
        probe = float(np.max(np.abs(_expm1(lam * t))))
        chain = _chain_lower(A, t)
        if chain > probe:
            return chain, "closed-form(chain)", None
        return probe, "closed-form(probe)", None
    grams = _grid_grams(lam, A.weights, B._coefficients(A), t, n_pieces)
    vals = [
        _phase_search(gram, False, restarts, iters, seed + j)[1]
        for j, gram in enumerate(grams)
    ]
    return max(vals), "phase-search", vals


def _check_horizon(t) -> None:
    """A finite positive horizon, else an AdmissibilityError naming it."""
    if t == math.inf:
        raise AdmissibilityError(
            "horizon must be finite, got inf; infinite_time_sup bounds the "
            "supremum over t"
        )
    if not 0.0 < t < math.inf:
        raise AdmissibilityError(f"horizon must be finite and positive, got {t!r}")


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

    Lower bound: the best column's phase search over ``n_pieces`` equal
    pieces (``restarts`` starts, at most ``iters`` steps each), or closed-form
    probe and chain inputs for the full diagonal.  It costs O(n) exponentials
    (not O(n·K)), one real product per block of modes for all m columns, and
    O(iters) Python steps per column (not O(restarts·iters)).  ``t`` must be
    finite and positive (:func:`infinite_time_sup` takes the supremum), and
    ``n_pieces`` an integer >= 1.
    """
    _check_horizon(t)
    if isinstance(n_pieces, bool) or not (
        isinstance(n_pieces, (int, np.integer)) and n_pieces >= 1
    ):
        raise AdmissibilityError(f"n_pieces must be an integer >= 1, got {n_pieces!r}")
    B.check_alignment(A)
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
    """Upper staircase envelope of g(s) = sum c_n e^{-rates_n s} with tail.

    The edges-by-modes exponentials are taken in row blocks of about
    ``_GRID_ENTRIES`` entries, all in one reused buffer: (-s)·r, its exp in
    place, then one matrix-vector product.  (-s)·r is bit for bit -(s·r),
    and each value is the same dot product as in one product over the whole
    matrix."""
    delta_min = float(np.min(rates))
    delta_max = float(np.max(rates))
    S = 40.0 / delta_min
    s_min = min(1e-3 / delta_max, S * 1e-9)
    edges = np.concatenate([[0.0], np.geomspace(s_min, S, n_grid)])
    neg_left = -edges[:-1]
    vals = np.empty(n_grid)
    step = _block_rows(rates.size, _GRID_ENTRIES)
    buf = np.empty((min(step, n_grid), rates.size))
    with np.errstate(under="ignore"):
        for i0 in range(0, n_grid, step):
            s = neg_left[i0 : i0 + step]
            block = buf[: len(s)]
            np.multiply.outer(s, rates, out=block)
            np.exp(block, out=block)
            vals[i0 : i0 + len(s)] = block @ c
    return SampledFunction(edges, vals, tail_rate=delta_min)


def _trial_norms(A: DiagonalGenerator, B: InputOperator, phi: YoungFunction, trials):
    """Yield (i, ||Phi_t u_i||, ||u_i||_{L_Phi}) for each scalar piecewise
    trial input u_i on its own horizon t, the last trial first.

    All trials are integrated in one pass of the Horner kernel, one run per
    trial, and each image is measured as the pass yields it, so no list of
    images is kept.  The kernel rounds per piece row and picks each piece's
    weight rule from that piece alone, so each image is bit for bit
    ``input_map(A, B, u_i)``, measured in X, or in X_{-1} when it left X
    (with :func:`input_map`'s warning).  The Luxemburg norm is taken
    of the profile cut from the breakpoints and ``|u_i|``, bit for bit that
    of ``SampledFunction(breakpoints, |u_i|)``.
    """
    widths = [np.diff(u.breakpoints) for u in trials]
    starts = list(accumulate(map(len, widths[:-1]), initial=0))
    scale = B._coefficients(A)[:, 0]
    images = _horner(
        A.eigenvalues, np.concatenate(widths),
        np.concatenate([u.values for u in trials]), starts=starts,
    )
    for i, ints in zip(range(len(trials) - 1, -1, -1), images):
        coeff = scale * ints
        lhs = _weighted_norm(A.weights, coeff)
        if lhs == math.inf and _left_x(A, coeff):
            lhs = space_norm(A, SpectralVector(coeff, "Xm1"))
        u = trials[i]
        mag = SampledFunction._cut(u.breakpoints, widths[i], np.abs(u.values))
        yield i, lhs, luxemburg_norm(phi, mag)


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
    re-verified before the pair is returned on ``n_verify`` seeded random
    inputs, trial i on ``horizons[i % len(horizons)]`` (default: 0.5, 1, 2
    and 8 times 1/delta); any violation raises :class:`CertificateViolation`
    naming the first failing trial.

    The re-verification draws every input first, then integrates all of
    them in one pass of the Horner kernel with one run per trial (see
    :func:`_trial_norms`), as the stepper does for a path's windows: O(n·K)
    for K pieces in all, with no signal, profile or vector object built per
    trial.  Every trial is checked, each bit for bit as the per-trial
    ``input_map`` and ``SampledFunction`` route would check it.
    ``n_verify`` is an integer >= 0, and the horizons finite and positive.
    """
    if isinstance(n_verify, bool) or not (
        isinstance(n_verify, (int, np.integer)) and n_verify >= 0
    ):
        raise AdmissibilityError(f"n_verify must be an integer >= 0, got {n_verify!r}")
    if horizons is not None:
        horizons = list(horizons)
        if not horizons:
            raise AdmissibilityError("horizons must hold at least one horizon")
        for t in horizons:
            if not 0.0 < t < math.inf:
                raise AdmissibilityError(
                    f"horizons must be finite and positive, got {t!r}"
                )
    Bop = InputOperator.aminus_x0(x0)  # rejects a non-finite x0 up front
    Bop.check_alignment(A)
    phi = compose_sqrt(psi)
    c = A.weights * np.abs(A.eigenvalues) * np.abs(Bop._preimages(A)[:, 0]) ** 2
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
        trials = [
            random_signal(rng, horizons[i % len(horizons)], int(rng.integers(3, 13)))
            for i in range(n_verify)
        ]
        failed = None
        for i, lhs, norm in _trial_norms(A, Bop, phi, trials):
            rhs = C * norm
            if lhs > rhs + 1e-8:
                failed = (i, lhs, rhs)  # the last one found is the first trial
        if failed is not None:
            i, lhs, rhs = failed
            raise CertificateViolation(
                f"certificate failed on trial {i}: ||Phi_t u|| = {lhs} "
                f"> C ||u||_Phi = {rhs} at t = {horizons[i % len(horizons)]}"
            )
    return phi, C


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k compounded roundings (Higham §3.1)."""
    return k * _ROUNDOFF / (1.0 - k * _ROUNDOFF)


def _pivoted_cholesky(lam: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted Cholesky G ~ L L*, G_ik = b_i conj(b_k) / -(lambda_i + conj lambda_k).

    G is never formed: a Schur column is the kernel column less the factor's
    part of it.  Returns the factor as r rows of n entries (row s is column s
    of L) and the remaining diagonal, that of the Schur complement G - L L*.
    The diagonal starts as |b_i|^2 / (2 |Re lambda_i|); each pivot takes a
    largest remaining entry (within a factor 2, below) and lowers the
    diagonal by |L_s|^2; the factor stops once the remaining diagonal sums to
    at most 2^-52 max_i G_ii, or at r = n.  Time is O(n·r^2), memory O(n·r).

    Pivots come in blocks, so that a full-rank G does its O(n^3) work in
    GEMMs.  A block's candidates are the largest remaining diagonal entries,
    twice as many as the last block took pivots (one at first, at most
    ``_PIVOT_BLOCK``), and their Schur columns come from the kernel and one
    GEMM against the factor so far.  Each pivot is the candidate with the
    largest remaining diagonal, its column that candidate's Schur column less
    the block's own earlier pivots.  The block ends when its candidates run
    out or the best falls below half the largest remaining entry, so no
    pivot is more than a factor 2 from the greedy choice.  A decaying
    spectrum takes one or two pivots per block; a full-rank G fills its
    blocks.  Measured for the full-rank worst case (lambda = -1 + ik, flat b,
    r = n; one BLAS thread, medians of alternating runs), the whole L2
    bracket against the dense ``eigvalsh`` of the whole Gram it replaced:
    10.5-10.8 ms against 4.2-4.4 ms at n = 200 (2.4-2.6x), and 0.59-0.64 s
    against 0.33-0.39 s at n = 1000 (1.6-1.9x).  The r x r ``eigvalsh`` in
    :func:`_gram_bracket` costs as much as the dense one when r = n, and the
    factor about as much again at n = 200 (200 pivots of about 20 us each).
    """
    n = lam.size
    d = (b.real * b.real + b.imag * b.imag) / (-2.0 * lam.real)
    stop = 2.0**-52 * float(d.max(initial=0.0))
    rows = np.empty((min(n, _PIVOT_BLOCK), n), dtype=complex)
    r = start = 0
    cand = np.arange(0)
    while r < n and float(d.sum()) > stop:
        took = r - start
        if took < cand.size:
            live = d[cand]
            j = int(np.argmax(live))
        if took == cand.size or live[j] < 0.5 * float(d.max()):
            size = min(n, _PIVOT_BLOCK, max(1, 2 * took))
            cand = np.argpartition(d, n - size)[n - size:]
            schur = np.conj(b[cand])[:, None] / -(lam + np.conj(lam[cand])[:, None])
            schur *= b
            schur -= np.conj(rows[:r, cand]).T @ rows[:r]
            start = r
            j = int(np.argmax(d[cand]))
        p = int(cand[j])
        piv = math.sqrt(float(d[p]))
        if r == len(rows):
            grown = np.empty((min(n, 2 * r), n), dtype=complex)
            grown[:r] = rows
            rows = grown
        col = rows[r]
        if r > start:
            np.subtract(schur[j], np.conj(rows[start:r, p]) @ rows[start:r], out=col)
            col *= 1.0 / piv
        else:
            np.multiply(schur[j], 1.0 / piv, out=col)
        col[p] = piv
        d -= np.abs(col) ** 2
        d[p] = 0.0
        r += 1
    return rows[:r], d


def _gram_bracket(lam: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Certified [lower, upper] on lambda_max(G) for the Gram G of one column b.

    G_ik = b_i conj(b_k) / -(lambda_i + conj lambda_k).  From the factor L
    and remaining diagonal s of :func:`_pivoted_cholesky`, with theta =
    lambda_max(L* L), the top eigenvalue of the r x r Gram of the factor
    (that of L L* too):

    * ``lower = theta - pad``.  The Schur complement S = G - L L* is positive
      semidefinite, so the Ritz vector y = L v / sqrt(theta), v the top
      eigenvector of L* L, has y* G y >= y* L L* y = theta, and the input
      Phi* y attains it.
    * ``upper = theta + sum |s_i| + pad``, since lambda_max(G) <=
      lambda_max(L L*) + ||S|| and ||S|| <= tr S for S >= 0.

    ``pad`` is the first-order rounding bound, gamma_k as in :func:`_gamma`
    and F = ||L||_F^2 = tr L* L:

    * the entries of G within gamma_21 relative (b = sqrt(w)·column, or
      sqrt(w)·lambda x0, within gamma_5; the sum lambda_i + conj lambda_k,
      the complex division and the product with b_i), so within gamma_21 tr G
      in norm, since |G_ik| <= (G_ii G_kk)^{1/2};
    * the r Cholesky steps, exact for G + Delta G with |Delta G| <=
      gamma_{r+1} (|L| |L*| + |S|) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, Thm 10.3), at most gamma_{r+1} (F + sum |s_i|)
      in norm;
    * the Gram L* L, complex inner products of length n: gamma_{n+2} F
      (Higham §3.6);
    * the r x r ``eigvalsh``, backward stable: gamma_r theta.

    With tr G ~ F + sum |s_i|: pad = gamma_{r+22} (F + sum |s_i|) +
    gamma_{n+2} F + gamma_r theta.
    """
    rows, rest = _pivoted_cholesky(lam, b)
    r, n = rows.shape
    gram = np.conj(rows) @ rows.T
    theta = float(np.linalg.eigvalsh(gram)[-1]) if r else 0.0
    mass = float(np.trace(gram).real)
    tail = float(np.abs(rest).sum())
    pad = _gamma(r + 22) * (mass + tail) + _gamma(n + 2) * mass + _gamma(r) * theta
    return max(theta - pad, 0.0), theta + tail + pad


def _l2_sup(A: DiagonalGenerator, B: InputOperator) -> tuple[float, float, dict | None]:
    """sup_t ||Phi_t||_{L2 -> X} as (lower, upper, per-column bracket).

    The reachability Gramian P_t grows with t in the Loewner order, so the
    supremum is the t = oo value.  The full diagonal form is the per-channel
    closed form, lower = upper.  A finite-rank form adds up the columns'
    Gram brackets from :func:`_gram_bracket` and takes square roots, rounded
    outward by gamma_{m+1} for the m-term sum and the root.
    """
    lam = A.eigenvalues
    if B.kind == "aminus_full":
        kappa = 1.0 / (2.0 * np.abs(lam.real))
        v = float(math.sqrt(float(np.max(np.abs(lam) ** 2 * kappa))))
        return v, v, None
    cols = B._coefficients(A)
    sw = np.sqrt(A.weights)
    lo, up = np.array(
        [_gram_bracket(lam, sw * cols[:, j]) for j in range(cols.shape[1])]
    ).T
    out = _gamma(len(lo) + 1)
    per_column = {
        "lower": (np.sqrt(lo) * (1.0 - out)).tolist(),
        "upper": (np.sqrt(up) * (1.0 + out)).tolist(),
    }
    lower = math.sqrt(float(np.sum(lo))) * (1.0 - out)
    return lower, math.sqrt(float(np.sum(up))) * (1.0 + out), per_column


def _l1_norm_exact(A: DiagonalGenerator, B: InputOperator) -> float:
    """||Phi_t||_{L1 -> X} = sup_{s <= t} ||T(s) B||, attained at s = 0."""
    lam = A.eigenvalues
    sw = np.sqrt(A.weights)
    if B.kind == "aminus_full":
        return float(np.max(np.abs(lam)))
    return float(np.linalg.norm(sw[:, None] * B._coefficients(A), ord=2))


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
    horizon-uniform, so the supremum of the lower bounds searched at
    ``horizons`` (default 0.25, 1 and 4 over delta) sits below one fixed upper
    value (asserted through the report invariant).  The L2 and L1 norms are
    nondecreasing in t and are taken at t = oo, so ``horizons`` applies to
    Linf only.  L1 is the exact kernel supremum, lower = upper, as is L2 for
    the full diagonal form (route ``channel-exact``).  For a finite-rank form
    L2 is a certified bracket from a pivoted Cholesky of each column's Gram
    (route ``gram-cholesky``, see :func:`_gram_bracket`): O(n·r^2) time and
    O(n·r) memory for a factor of rank r, with no n x n array, and
    ``per_column`` holds each column's bracket.  A rapidly decaying Gram
    spectrum keeps r small (21-33 on the benchmark's spectra at 200-1024
    modes); the bracket is then about 1e-13 wide relative to the value.
    """
    B.check_alignment(A)
    if space == "Linf":
        if horizons is None:
            horizons = [0.25 / A.delta, 1.0 / A.delta, 4.0 / A.delta]
        horizons = list(horizons)
        if not horizons:
            raise AdmissibilityError("the Linf supremum needs at least one horizon")
        for t in horizons:
            _check_horizon(t)
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
        lower, upper, per_column = _l2_sup(A, B)
        route = "channel-exact" if B.kind == "aminus_full" else "gram-cholesky"
        return AdmissibilityReport(
            t=math.inf, space="L2", lower=lower, upper=upper, route=route,
            lower_route=route, n_modes=A.n_modes,
            routes={route: {"value": upper, "reason": None}},
            per_column=per_column,
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
    if not ts:
        raise AdmissibilityError("need a positive horizon grid")
    for t in ts:
        _check_horizon(t)
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
