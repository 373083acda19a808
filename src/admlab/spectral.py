"""Diagonal generator arithmetic on a weighted-ℓ² scale of spaces.

The model is a diagonal operator ``A e_n = lambda_n e_n`` on a separable
Hilbert space with Riesz weights ``w_n > 0``, all eigenvalues in the open left
half-plane.  Three rungs of the usual interpolation/extrapolation ladder are
tracked per vector through a scale tag:

    ``X1``  : graph norm      ``sum w_n (1 + |lambda_n|^2) |x_n|^2``
    ``X``   : base norm       ``sum w_n |x_n|^2``
    ``Xm1`` : completion norm ``sum w_n |x_n|^2 / |beta - lambda_n|^2``

with ``beta`` a fixed resolvent point.  The semigroup ``e^{lambda_n t}``, the
resolvent ``1/(lambda - lambda_n)`` (raises the scale), the principal square
root ``(-lambda_n)^{1/2}`` (lowers it), and bounded functional calculus
``g(-lambda_n)`` all act coefficient-wise, which makes every operation exact
up to one floating-point function evaluation per mode.

All objects are immutable and all operations pure; reductions use numpy's
pairwise summation, so results are deterministic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Callable

import numpy as np

from ._frozen import frozen

__all__ = [
    "SpectralError",
    "SpectrumHit",
    "SectorError",
    "ConfigError",
    "DiagonalGenerator",
    "SpectralVector",
    "basis_vector",
    "semigroup_apply",
    "resolvent_apply",
    "frac_power_apply",
    "hinf_multiplier",
    "space_norm",
    "generator_from_json",
]

_SCALES = ("Xm1", "X", "X1")
_OVERFLOW = 1e300


class SpectralError(Exception):
    """Base error for diagonal-model computations."""


class SpectrumHit(SpectralError):
    """Resolvent requested at (or numerically on top of) an eigenvalue."""


class SectorError(SpectralError):
    """Operation requires a sector angle below pi/2."""


class ConfigError(Exception):
    """Scenario or flag problem: the command line exits 1 on it."""


class DiagonalGenerator:
    """Diagonal generator with eigenvalues in the open left half-plane.

    Parameters
    ----------
    eigenvalues:
        Complex sequence with ``Re lambda_n < 0`` (a positive decay margin
        ``delta = -max Re lambda_n`` is enforced).
    weights:
        Positive reals ``w_n``; defaults to 1 (orthonormal basis).
    beta:
        Reference resolvent point for the ``Xm1`` norm.  Defaults to 0 when
        the spectrum stays away from the origin, else 1.
    """

    def __init__(self, eigenvalues, weights=None, beta: complex | None = None):
        lam = np.asarray(eigenvalues, dtype=complex)
        if lam.ndim != 1 or lam.size == 0:
            raise SpectralError("need a nonempty 1-d eigenvalue list")
        if not np.all(np.isfinite(lam.real) & np.isfinite(lam.imag)):
            raise SpectralError("eigenvalues must be finite")
        if np.any(lam.real >= 0.0):
            raise SpectralError("eigenvalues must satisfy Re lambda < 0")
        if weights is None:
            w = np.ones(lam.size, dtype=float)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != lam.shape:
                raise SpectralError("weights must align with eigenvalues")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise SpectralError("weights must be positive and finite")
        if beta is None:
            beta = 0.0 if float(np.min(np.abs(lam))) > 1e-12 else 1.0
        beta = complex(beta)
        gap = float(np.min(np.abs(beta - lam)))
        if gap <= 1e-14 * (1.0 + abs(beta)):
            raise SpectralError("beta must stay away from the spectrum")
        self.eigenvalues = frozen(lam)
        self.weights = frozen(w)
        self.beta = beta

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def delta(self) -> float:
        """Exponential stability margin: -(largest real part)."""
        return float(-np.max(self.eigenvalues.real))

    @property
    def sector_angle(self) -> float:
        """sup_n |arg(-lambda_n)|, in [0, pi/2) by the half-plane constraint."""
        return float(
            np.max(np.arctan2(np.abs(self.eigenvalues.imag), -self.eigenvalues.real))
        )

    @classmethod
    def from_ray(
        cls,
        base: float,
        exponent: float,
        angle: float,
        count: int,
        weights=None,
        beta: complex | None = None,
    ) -> "DiagonalGenerator":
        """lambda_n = -|base| * n**exponent * e^{i*angle}, n = 1..count."""
        if count < 1:
            raise SpectralError("ray rule needs count >= 1")
        if not abs(angle) < 0.5 * math.pi:
            raise SpectralError("ray angle must satisfy |angle| < pi/2")
        if base == 0.0:
            raise SpectralError("ray rule needs a nonzero base")
        try:
            n = np.arange(1, count + 1, dtype=float)
            lam = -abs(base) * n**exponent * cmath.exp(1j * angle)
            return cls(lam, weights=weights, beta=beta)
        except MemoryError as exc:
            raise SpectralError(f"ray count {count} does not fit in memory") from exc

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DiagonalGenerator(n_modes={self.n_modes}, delta={self.delta:.3g}, "
            f"sector={self.sector_angle:.3g}, beta={self.beta})"
        )


@dataclass(frozen=True)
class SpectralVector:
    """Coefficient vector tagged with its scale rung ('X1', 'X' or 'Xm1')."""

    coefficients: np.ndarray
    scale: str = "X"

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        if coeff.ndim != 1:
            raise SpectralError("coefficients must be a 1-d vector")
        if self.scale not in _SCALES:
            raise SpectralError(f"unknown scale tag {self.scale!r}")
        object.__setattr__(self, "coefficients", frozen(coeff))


def basis_vector(A: DiagonalGenerator, n: int, scale: str = "X") -> SpectralVector:
    """Canonical basis vector e_n (0-indexed)."""
    if not 0 <= n < A.n_modes:
        raise SpectralError("basis index out of range")
    coeff = np.zeros(A.n_modes, dtype=complex)
    coeff[n] = 1.0
    return SpectralVector(coeff, scale)


def _check_aligned(A: DiagonalGenerator, x: SpectralVector) -> None:
    if x.coefficients.size != A.n_modes:
        raise SpectralError("vector length does not match the generator")


def space_norm(A: DiagonalGenerator, x: SpectralVector) -> float:
    """Weighted-ℓ² norm in the tagged scale; +inf when any term overflows."""
    _check_aligned(A, x)
    lam = A.eigenvalues
    if x.scale == "X":
        factor = A.weights
    elif x.scale == "X1":
        factor = A.weights * (1.0 + np.abs(lam) ** 2)
    else:
        factor = A.weights / np.abs(A.beta - lam) ** 2
    return _weighted_norm(factor, x.coefficients)


def _weighted_norm(factor: np.ndarray, coefficients: np.ndarray) -> float:
    """sqrt(sum factor_n |x_n|^2), or +inf when any term overflows (or is NaN)."""
    terms = np.abs(coefficients)
    with np.errstate(over="ignore"):
        terms *= terms
        terms *= factor
    if not (terms <= _OVERFLOW).all():
        return math.inf
    return math.sqrt(terms.sum())


def _weighted_norms(factor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`_weighted_norm` of each row of ``rows`` (T×n), in one pass.

    A row's terms are summed along the row, as a 1-d sum would, so each norm
    is bit for bit the one-vector norm.  The one-vector form stays separate:
    it runs once per input-map image, where the row form's masks would add
    about 3 µs a call.
    """
    terms = np.abs(rows)
    with np.errstate(over="ignore"):
        terms *= terms
        terms *= factor
    norms = np.sqrt(terms.sum(axis=1))
    norms[~(terms <= _OVERFLOW).all(axis=1)] = math.inf
    return norms


def semigroup_apply(A: DiagonalGenerator, t: float, x: SpectralVector) -> SpectralVector:
    """x_n -> e^{lambda_n t} x_n; scale tag preserved; requires t >= 0."""
    _check_aligned(A, x)
    if not (t >= 0.0 and math.isfinite(t)):
        raise SpectralError("semigroup time must be finite and nonnegative")
    if t == 0.0:
        return x
    return SpectralVector(x.coefficients * _semigroup_factors(A, t), x.scale)


def _semigroup_factors(A: DiagonalGenerator, t: float) -> np.ndarray:
    """e^{lambda_n t} for every mode (t > 0 finite)."""
    w = A.eigenvalues * t
    with np.errstate(under="ignore"):
        # numpy's exp is 15-100 times slower where it underflows, and those
        # factors are 0: e^x > 0 above -740, and e^x < 2^-1080 rounds to 0 at
        # or below -750, so only the real parts in between need np.exp to
        # find the live set np.exp(w.real) != 0
        if w.real.min() > -740.0:
            return np.exp(w)
        live = w.real > -750.0
        live[live] = np.exp(w.real[live]) != 0.0
        if 2 * int(np.count_nonzero(live)) >= live.size:
            return np.exp(w)
        factors = np.zeros_like(w)
        factors[live] = np.exp(w[live])
    return factors


def resolvent_apply(
    A: DiagonalGenerator, lam: complex, x: SpectralVector
) -> SpectralVector:
    """x_n -> x_n / (lambda - lambda_n); raises the scale one rung (cap X1)."""
    _check_aligned(A, x)
    lam = complex(lam)
    dist = np.abs(lam - A.eigenvalues)
    if float(np.min(dist)) < 1e-14 * (1.0 + abs(lam)):
        raise SpectrumHit(f"lambda = {lam} is numerically on the spectrum")
    coeff = x.coefficients / (lam - A.eigenvalues)
    new_scale = _SCALES[min(_SCALES.index(x.scale) + 1, len(_SCALES) - 1)]
    return SpectralVector(coeff, new_scale)


def frac_power_apply(A: DiagonalGenerator, x: SpectralVector) -> SpectralVector:
    """x_n -> (-lambda_n)^{1/2} x_n (principal branch); lowers the scale one rung.

    The principal root is single-valued because ``-lambda_n`` lies in the open
    right half-plane (|arg| < pi/2); real spectra give real positive roots.
    """
    _check_aligned(A, x)
    if not A.sector_angle < 0.5 * math.pi:
        raise SectorError("square root needs sector angle < pi/2")
    if x.scale == "Xm1":
        raise SpectralError("square root is applied on the X or X1 rung")
    roots = np.sqrt(-A.eigenvalues)
    new_scale = _SCALES[_SCALES.index(x.scale) - 1]
    return SpectralVector(x.coefficients * roots, new_scale)


def hinf_multiplier(
    A: DiagonalGenerator, g: Callable[[np.ndarray], np.ndarray], x: SpectralVector
) -> tuple[SpectralVector, float]:
    """x_n -> g(-lambda_n) x_n with the diagonal multiplier bound sup_n |g(-lambda_n)|.

    ``g`` is evaluated on the vector of right-half-plane points ``-lambda_n``
    (a scalar-only callable is applied mode by mode).
    """
    _check_aligned(A, x)
    z = -A.eigenvalues
    try:
        vals = np.asarray(g(z), dtype=complex)
        if vals.shape != z.shape:
            raise TypeError
    except TypeError:
        vals = np.array([complex(g(zi)) for zi in z])
    if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
        raise SpectralError("multiplier is not finite on the spectrum")
    bound = float(np.max(np.abs(vals)))
    return SpectralVector(x.coefficients * vals, x.scale), bound


# A JSON number parses to exactly ``int`` or ``float``, never ``bool``; NaN and
# ±inf are numbers, as the schema has them.
_REAL = {int, float}


def _floats(values: list, what: str) -> np.ndarray:
    """JSON numbers as float64, type-checked and converted in one pass each."""
    if not set(map(type, values)) <= _REAL:
        raise ConfigError(f"{what} holds an entry that is not a number")
    return np.array(values, dtype=float)


def _decode(arr, what: str, kind: str = "cvec") -> np.ndarray:
    """The scenario's numbers under ``what`` as one array.

    ``kind`` is the schema's array type: ``"cvec"`` (numbers and [re, im]
    pairs, mixed in any order) gives a complex vector, ``"weights"`` (numbers
    not <= 0, so NaN passes as in the schema) a float vector, and
    ``"matrix"`` (cvec rows) a complex (rows, columns) array.  Each entry gets
    the bits of ``complex(float(re), float(im))`` (of ``float(w)`` for
    weights), and an array already decoded is returned as it is.  What the
    schema refuses raises a :class:`ConfigError` naming ``what``, and so do
    rows of different lengths, which the schema accepts.  The command line
    refuses an integer beyond the float range where it parses the scenario.
    """
    if isinstance(arr, np.ndarray):
        return arr
    if type(arr) is not list or not arr:
        raise ConfigError(f"{what} must be a non-empty list")
    types = set(map(type, arr))
    if kind == "matrix":
        if types != {list}:
            raise ConfigError(f"{what} must be a list of rows")
        widths = sorted(set(map(len, arr)))
        if len(widths) > 1:
            raise ConfigError(f"{what} has rows of lengths {widths}")
        return _decode(list(chain.from_iterable(arr)), what).reshape(len(arr), -1)
    if kind == "weights" or list not in types:
        values = _floats(arr, what)
        if kind == "cvec":
            return values.astype(complex)
        if (values <= 0.0).any():
            raise ConfigError(f"{what} must be positive")
        return values
    if types != {list}:  # numbers and pairs mixed: decode each part apart
        is_pair = np.fromiter(map(isinstance, arr, repeat(list)), bool, len(arr))
        out = np.empty(len(arr), dtype=complex)
        out[is_pair] = _decode(list(compress(arr, is_pair.tolist())), what)
        out[~is_pair] = _decode(list(compress(arr, (~is_pair).tolist())), what)
        return out
    if set(map(len, arr)) != {2}:
        raise ConfigError(f"{what} holds a list that is not an [re, im] pair")
    return _floats(list(chain.from_iterable(arr)), what).view(complex)


def generator_from_json(obj: dict) -> DiagonalGenerator:
    """Build a generator from an explicit list or a ray rule.

    Accepted forms::

        {"kind": "explicit", "eigenvalues": [[re, im], ...],
         "weights"?: [...], "beta"?: [re, im]}
        {"kind": "ray", "base": -1, "exponent": a, "angle": phi, "count": N,
         "weights"?: [...], "beta"?: [re, im]}

    ``eigenvalues`` and ``weights`` may also be the arrays :func:`_decode`
    made of them, which are taken as they are.
    """
    try:
        kind = obj.get("kind", "explicit")
        beta = obj.get("beta")
        if beta is not None:
            beta = _decode([beta], "beta")[0]
        weights = obj.get("weights")
        if weights is not None:
            weights = _decode(weights, "weights", "weights")
        if kind == "ray":
            return DiagonalGenerator.from_ray(
                float(obj["base"]),
                float(obj["exponent"]),
                float(obj["angle"]),
                int(obj["count"]),
                weights=weights,
                beta=beta,
            )
        if kind == "explicit":
            lam = _decode(obj["eigenvalues"], "eigenvalues")
            return DiagonalGenerator(lam, weights=weights, beta=beta)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SpectralError(f"malformed generator object: {exc}") from exc
    raise SpectralError(f"unknown generator kind {kind!r}")
