"""Young functions and Orlicz-space numerics.

A Young function is a convex ``Phi : [0, oo) -> [0, oo)`` with ``Phi(0) = 0``,
``Phi(x)/x -> 0`` as ``x -> 0+`` and ``Phi(x)/x -> oo`` as ``x -> oo``.  Every
Young function used here is represented through its density (right derivative)
``phi`` as a finite, ordered list of segments

    ``phi(x) = c * x**r``   (power segment, ``c > 0``, ``r > 0``), or
    ``phi(x) = c``          (constant segment, ``c >= 0``),

each valid on ``[x_i, x_{i+1})``, the last one extending to infinity, so that

    ``Phi(x) = integral_0^x phi(s) ds``

has an exact per-segment antiderivative.  The class is closed under the two
transforms needed downstream: the complementary (Legendre) function

    ``Phi~(y) = sup_{x >= 0} (x*y - Phi(x))``

whose density is the generalized inverse of ``phi`` (power segments invert to
power segments, jumps become constants and vice versa), and the square
substitution ``x -> Phi~(x**2)`` whose density is ``2x * phi~(x**2)``.

The Luxemburg norm of a sampled profile ``u`` is

    ``||u|| = inf{ k > 0 : integral Phi(|u(s)|/k) ds <= 1 }``.

The modular is exact for piecewise-constant profiles and in closed form for
exponential tails via

    ``integral_T^oo Phi(a e^{-rho(s-T)}/k) ds = (1/rho) integral_0^{a/k} Phi(v)/v dv``.

A safeguarded Newton iteration in ``1/k`` reaches the norm in a handful of
modular passes (two for a pure power ``Phi``, whose first log-log step is the
closed form).  The returned ``k`` is certified: ``modular(k) <= 1`` and
``modular(k (1 - rel_tol/4)) > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._frozen import frozen

__all__ = [
    "OrliczError",
    "UnsupportedYoungFunction",
    "BracketError",
    "Segment",
    "YoungFunction",
    "SampledFunction",
    "complementary",
    "luxemburg_norm",
    "modular",
    "holder_bound",
    "compose_sqrt",
    "dvp_construct",
    "young_from_json",
    "power_young",
]

_JUMP_RTOL = 1e-13
_MAX_LEVELS = 100_000


class OrliczError(Exception):
    """Base error for Orlicz-space computations."""


class UnsupportedYoungFunction(OrliczError):
    """The requested transform leaves the representable segment class."""


class BracketError(OrliczError):
    """Luxemburg bracketing failed to cross the modular level 1."""


@dataclass(frozen=True)
class Segment:
    """One density segment: ``c*x**r`` (kind 'power') or ``c`` (kind 'const') on [x0, next)."""

    x0: float
    kind: str
    c: float
    r: float = 0.0

    def density_at(self, x: float) -> float:
        if self.kind == "power":
            try:
                return self.c * x**self.r
            except OverflowError:
                return _scaled_power(self.c, x, self.r)
        return self.c


def _scaled_power(c: float, x: float, e: float, *divisors: float) -> float:
    """c * x**e (divided by each of ``divisors``) for positive arguments,
    where x**e alone overflows.  x**e is y**k, y = x**(e/k) with k = 2 or 4
    (e/k is exact), and the product is kept as a mantissa in [0.5, 1) and a
    power of two, so no step over- or underflows: the result is inf (or a
    subnormal) only where the exact value is, and is within a few roundings
    of it.  Logs would lose about |log| units of 2^-53."""
    for k in (2, 4):
        try:
            y = x ** (e / k)
        except OverflowError:
            continue
        m, p = math.frexp(c)
        for step in [y] * k:
            m, q = math.frexp(m * step)
            p += q
        for d in divisors:
            m, q = math.frexp(m / d)
            p += q
        try:
            return math.ldexp(m, p)
        except OverflowError:
            return math.inf
    return math.inf


class YoungFunction:
    """Piecewise power/constant density representation of a Young function.

    Supports vectorized evaluation, the inverse of ``Phi``, the complementary
    function and exact segment serialization.  Immutable after construction.
    """

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(
            Segment(float(s.x0), str(s.kind), float(s.c), float(s.r)) for s in segments
        )
        if not segs:
            raise OrliczError("a Young function needs at least one density segment")
        if segs[0].x0 != 0.0:
            raise OrliczError("first segment must start at x = 0")
        for s in segs:
            if s.kind not in ("power", "const"):
                raise OrliczError(f"unknown segment kind {s.kind!r}")
            if not (math.isfinite(s.c) and math.isfinite(s.r) and math.isfinite(s.x0)):
                raise OrliczError("segment parameters must be finite")
            if s.kind == "power" and (s.c <= 0.0 or s.r <= 0.0):
                raise OrliczError("power segments need c > 0 and r > 0")
            if s.kind == "const" and s.c < 0.0:
                raise OrliczError("constant segments need c >= 0")
        bx = np.array([s.x0 for s in segs], dtype=float)
        if np.any(np.diff(bx) <= 0.0):
            raise OrliczError("segment breakpoints must be strictly increasing")
        # density must be nondecreasing across boundaries (inside segments it is
        # automatic); this is what makes Phi convex.
        for left, right in zip(segs[:-1], segs[1:]):
            d_end = left.density_at(right.x0)
            d_begin = right.density_at(right.x0)
            if d_begin < d_end * (1.0 - 1e-12) - 1e-300:
                raise OrliczError("density must be nondecreasing")
        first = segs[0]
        if first.kind == "const" and first.c > 0.0:
            raise OrliczError(
                "Phi(x)/x -> 0 at 0 requires the first segment to be a power "
                "or the zero constant"
            )
        self._segments = segs
        self._bx = frozen(bx)
        self._is_pow = np.array([s.kind == "power" for s in segs])
        self._c = np.array([s.c for s in segs], dtype=float)
        self._r = np.where(self._is_pow, [s.r for s in segs], 0.0)
        # On segment i, Phi(x) = offset_i + coef_i * x**expo_i and
        # phi(x) = c_i * x**r_i (r_i = 0 on constant segments).
        self._expo = frozen(self._r + 1.0)
        self._coef = frozen(self._c / self._expo)
        cum = np.zeros(len(segs), dtype=float)
        with np.errstate(over="ignore"):
            for i in range(len(segs) - 1):
                rise = bx[i + 1] ** self._expo[i] - bx[i] ** self._expo[i]
                cum[i + 1] = cum[i] + self._coef[i] * rise
            self._offset = frozen(cum - self._coef * bx**self._expo)
        self._cum = cum
        self._inner = bx[1:]
        # (x_i, x_{i+1}, offset_i, c_i, expo_i) as Python floats for scalar loops
        self._rows = tuple(zip(bx.tolist(), bx[1:].tolist() + [math.inf],
                               self._offset.tolist(), self._c.tolist(), self._expo.tolist()))

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(x, offset, coef, expo)``: on ``[x_i, x_{i+1})``,
        ``Phi(x) = offset_i + coef_i * x**expo_i``."""
        return self._bx, self._offset, self._coef, self._expo

    @property
    def superlinear(self) -> bool:
        """True when the final density grows without bound (Phi(x)/x -> oo)."""
        last = self._segments[-1]
        return last.kind == "power" and last.r > 0.0 and last.c > 0.0

    def __call__(self, x):
        """Phi(|x|), vectorized; exact per-segment antiderivatives."""
        xa = np.abs(np.asarray(x, dtype=float))
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa)
        idx = self._index(xa)
        with np.errstate(over="ignore"):
            out = self._mend(self._value(xa, idx), xa, idx)
        return float(out[0]) if scalar else out

    def _index(self, xa):
        """Segment index of each entry of ``xa >= 0`` (0 for a single segment)."""
        if len(self._segments) == 1:
            return 0
        return np.searchsorted(self._inner, xa, side="right")

    def _value(self, xa, idx):
        return self._offset[idx] + self._coef[idx] * xa ** self._expo[idx]

    def _density(self, xa, idx):
        return self._c[idx] * xa ** self._r[idx]

    def _mend(self, out, xa, idx, density=False):
        """Retake in place each entry of ``out``, Phi at the array ``xa`` on
        segments ``idx`` (phi with ``density``), that reads inf because its
        power alone overflows: by :func:`_scaled_power`, so that an entry
        stays inf only where its value is beyond the float range."""
        coef, expo = (self._c, self._r) if density else (self._coef, self._expo)
        idx = np.broadcast_to(idx, out.shape)
        for i in np.flatnonzero(np.isinf(out)):
            j = idx[i]
            power = _scaled_power(float(coef[j]), float(xa[i]), float(expo[j]))
            out[i] = power if density else self._offset[j] + power
        return out

    def inverse(self, y):
        """Generalized inverse of Phi (right-continuous); inverse(0) = 0."""
        ya = np.asarray(y, dtype=float)
        scalar = ya.ndim == 0
        ya = np.atleast_1d(ya)
        if np.any(ya < 0.0):
            raise OrliczError("inverse is defined for y >= 0")
        idx = np.searchsorted(self._cum, ya, side="right") - 1
        idx = np.clip(idx, 0, len(self._segments) - 1)
        a = self._bx[idx]
        c = self._c[idx]
        r = self._r[idx]
        rest = ya - self._cum[idx]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rp1 = r + 1.0
            pow_x = (a**rp1 + rest * rp1 / np.where(c > 0.0, c, 1.0)) ** (1.0 / rp1)
            const_x = a + rest / np.where(c > 0.0, c, np.inf)
            out = np.where(self._is_pow[idx], pow_x, const_x)
        out = np.where(ya == 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    def phi_over_x_integral(self, y: float) -> float:
        """integral_0^y Phi(v)/v dv in closed form (finite for every y >= 0).

        On segment i, Phi(v)/v = offset_i/v + coef_i v**(expo_i - 1), whose
        primitive is offset_i log(v) + (c_i/expo_i**2) v**expo_i; offset_0 = 0,
        so there is no log divergence at 0.
        """
        total = 0.0
        for lo, hi, offset, c, expo in self._rows:
            hi = min(hi, y)
            if hi <= lo:
                break
            try:
                total += c / expo**2 * (hi**expo - lo**expo)
            except OverflowError:  # expo**2 or hi**expo alone beyond the float range
                total += _scaled_power(c, hi, expo, expo, expo) * (1.0 - (lo / hi) ** expo)
            if lo > 0.0:
                total += offset * (math.log(hi) - math.log(lo))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = ", ".join(
            f"[{s.x0:g}: {s.c:g}*x^{s.r:g}]" if s.kind == "power" else f"[{s.x0:g}: {s.c:g}]"
            for s in self._segments
        )
        return f"YoungFunction({parts})"


def power_young(p: float, scale: float = 1.0) -> YoungFunction:
    """Phi(x) = scale * x**p (p > 1): density scale*p*x^(p-1)."""
    if p <= 1.0:
        raise OrliczError("power Young functions need p > 1")
    return YoungFunction([Segment(0.0, "power", scale * p, p - 1.0)])


def complementary(phi: YoungFunction) -> YoungFunction:
    """Legendre transform Phi~(y) = sup_x (xy - Phi(x)), exact per segment.

    The density of Phi~ is the right-continuous generalized inverse of the
    density of Phi: power pieces ``c*x**r`` invert to ``c**(-1/r) * y**(1/r)``,
    density jumps become constant pieces at the jump location, and constant
    pieces become jumps.  Closure requires phi to vanish at 0+ (first segment a
    power) and to be unbounded (last segment a power); otherwise the conjugate
    leaves the representable class.
    """
    segs = phi.segments
    if not phi.superlinear:
        raise UnsupportedYoungFunction(
            "density is constant on the unbounded final segment; the "
            "complementary function jumps to +inf at a finite argument"
        )
    if segs[0].kind != "power":
        raise UnsupportedYoungFunction(
            "density vanishes on an initial interval; the complementary "
            "density starts at a positive constant, outside the Young class"
        )
    out: list[Segment] = []
    y_cur = 0.0
    for i, seg in enumerate(segs):
        x_lo = seg.x0
        x_hi = segs[i + 1].x0 if i + 1 < len(segs) else math.inf
        if seg.kind == "power":
            y_lo = seg.c * x_lo**seg.r
            if y_lo > y_cur * (1.0 + _JUMP_RTOL) + 1e-300:
                out.append(Segment(y_cur, "const", x_lo))
            out.append(
                Segment(max(y_cur, y_lo), "power", seg.c ** (-1.0 / seg.r), 1.0 / seg.r)
            )
            y_cur = seg.c * x_hi**seg.r if math.isfinite(x_hi) else math.inf
        else:
            y_lo = seg.c
            if y_lo > y_cur * (1.0 + _JUMP_RTOL) + 1e-300:
                out.append(Segment(y_cur, "const", x_lo))
            y_cur = y_lo
    # Snap accumulated float noise in the start points (they must be exactly
    # the previous segment's end value to chain).
    cleaned: list[Segment] = []
    prev_start = -math.inf
    for seg in out:
        start = seg.x0
        if cleaned and start <= prev_start:
            continue
        cleaned.append(Segment(start, seg.kind, seg.c, seg.r))
        prev_start = start
    return YoungFunction(cleaned)


def compose_sqrt(psi: YoungFunction) -> YoungFunction:
    """Phi(x) = Phi~(x**2) with Phi~ = complementary(psi), exact in-class.

    With ``phi~`` the density of the conjugate, the substituted density is
    ``2x * phi~(x**2)``: power pieces (c, r) map to (2c, 2r+1), constants c to
    the ramp (2c, 1), and breakpoints y to sqrt(y).
    """
    conj = complementary(psi)
    out: list[Segment] = []
    for seg in conj.segments:
        x0 = math.sqrt(seg.x0)
        if seg.kind == "power":
            out.append(Segment(x0, "power", 2.0 * seg.c, 2.0 * seg.r + 1.0))
        elif seg.c == 0.0:
            out.append(Segment(x0, "const", 0.0))
        else:
            out.append(Segment(x0, "power", 2.0 * seg.c, 1.0))
    return YoungFunction(out)


class SampledFunction:
    """Nonnegative piecewise-constant profile with an optional exponential tail.

    ``values[k]`` holds on ``[edges[k], edges[k+1])``; for ``s >= edges[-1]``
    the profile continues as ``values[-1] * exp(-tail_rate*(s - edges[-1]))``
    when a tail rate is set and is zero otherwise.  The profile vanishes below
    ``edges[0]``.
    """

    def __init__(self, edges, values, tail_rate: float | None = None):
        edges = np.asarray(edges, dtype=float)
        values = np.abs(np.asarray(values, dtype=float))
        if edges.ndim != 1 or values.ndim != 1 or len(edges) != len(values) + 1:
            raise OrliczError("need K+1 edges for K piece values")
        if len(values) == 0:
            raise OrliczError("empty profile")
        widths = np.diff(edges)
        if np.any(widths <= 0.0):
            raise OrliczError("grid must be strictly increasing")
        if edges[0] < 0.0:
            raise OrliczError("grid must start at a nonnegative time")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise OrliczError("grid and values must be finite")
        if tail_rate is not None:
            tail_rate = float(tail_rate)
            if not (tail_rate > 0.0 and math.isfinite(tail_rate)):
                raise OrliczError("tail rate must be positive and finite")
        values.setflags(write=False)
        widths.setflags(write=False)
        self.edges = frozen(edges)
        self.values = values
        self.widths = widths
        self.tail_rate = tail_rate

    @classmethod
    def _cut(cls, edges, widths, values) -> "SampledFunction":
        """A tail-free profile cut from an already-validated signal, with no
        check and no copy: ``edges`` strictly increasing and finite from
        s = 0, ``widths`` = ``np.diff(edges)`` and ``values`` finite and
        nonnegative, all float64 and 1-d, as ``PiecewiseSignal`` guarantees
        for its breakpoints and ``np.abs`` of its values.  The arrays are
        marked read-only."""
        self = object.__new__(cls)
        for a in (edges, widths, values):
            a.setflags(write=False)
        self.edges, self.widths, self.values = edges, widths, values
        self.tail_rate = None
        return self

    def sup_norm(self) -> float:
        return float(np.max(self.values))

    def l1(self) -> float:
        core = float(np.dot(self.values, self.widths))
        if self.tail_rate is not None:
            core += float(self.values[-1]) / self.tail_rate
        return core

    def scaled(self, alpha: float) -> "SampledFunction":
        return SampledFunction(self.edges, np.abs(alpha) * self.values, self.tail_rate)


def modular(phi: YoungFunction, u: SampledFunction, k: float, slope: bool = False):
    """integral Phi(|u(s)|/k) ds, exact (pieces + closed-form tail).

    With ``slope=True`` the same pass also returns the derivative in
    ``s = 1/k``: with ``Psi(y) = integral_0^y Phi(v)/v dv`` and tail
    amplitude ``a``,

        ``m(s)  = sum_i w_i Phi(s v_i) + Psi(a s)/rho``,
        ``m'(s) = sum_i w_i v_i phi(s v_i) + Phi(a s)/(s rho)``,

    with ``phi`` the right density, so ``m'`` is a subgradient at kinks; the
    result is then the pair ``(m, m')``.
    """
    if k <= 0.0:
        raise OrliczError("modular scale k must be positive")
    x = u.values / k
    idx = phi._index(x)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi._value(x, idx)
        m = float(np.dot(vals, u.widths))
        big = m == math.inf  # a Phi(x) may read inf where only x**expo overflows
        if big:
            m = float(np.dot(phi._mend(vals, x, idx), u.widths))
        dm = 0.0
        if slope:
            dens = phi._density(x, idx)
            if big:
                phi._mend(dens, x, idx, density=True)
            dm = float(np.dot(dens * u.values, u.widths))
        if u.tail_rate is not None and u.values[-1] > 0.0:
            a = float(u.values[-1]) / k
            m += phi.phi_over_x_integral(a) / u.tail_rate
            if slope:  # a is x[-1], whose Phi the mended vals hold
                top = vals[-1] if big else phi._value(a, phi._index(a))
                dm += float(top) * k / u.tail_rate
    return (m, dm) if slope else m


_MAX_STEPS = 200
_NEWTON_STEPS = 20


def luxemburg_norm(
    phi: YoungFunction, u: SampledFunction, rel_tol: float = 1e-10
) -> float:
    """inf{k > 0 : integral Phi(|u|/k) <= 1}, certified to ``rel_tol``.

    The returned ``k`` has ``modular(k) <= 1`` and
    ``modular(k * (1 - rel_tol/4)) > 1``.  A safeguarded Newton iteration in
    ``s = 1/k``, started at ``k = sup|u|``, keeps a bracket
    ``modular(k_lo) > 1 >= modular(k_hi)`` from every pass of
    :func:`modular`.  Its log-log step (see :func:`_newton_step`) aims a
    little below level 1, at ``1 - rel_tol/16``; for a pure power the first
    step is the closed form ``sup|u| * (modular(sup|u|)/level)**(1/p)``.

    The modular is convex in ``s``, so a pass at ``k`` with value ``m <= 1``
    and slope ``m'`` bounds ``modular(k (1 - rel_tol/4))`` from below by
    ``m + m' ds``; once that bound exceeds 1 (by a ``rel_tol/8`` margin for
    rounding) ``k`` is returned without a further pass.  A pure power thus
    takes 2 passes and a piecewise ``Phi`` about 4.  Steps stay
    ``rel_tol/4`` inside the bracket, so a pass can also close it; a step
    that leaves it, and every step after the first ``_NEWTON_STEPS``, is
    replaced by bisection (doubling or halving while the bracket is open).
    Returns 0 for u == 0 and raises :class:`BracketError` when the modular
    never crosses level 1.
    """
    vmax = u.sup_norm()
    if vmax == 0.0:
        return 0.0
    gap = 0.25 * rel_tol
    level = 1.0 - 0.25 * gap
    k_lo, k_hi = 0.0, math.inf
    k = vmax
    for i in range(_MAX_STEPS):
        m, dm = modular(phi, u, k, slope=True)
        if m > 1.0:
            k_lo = k
        else:
            k_hi = k
            if dm < math.inf and m + dm * gap / (k * (1.0 - gap)) > 1.0 + 0.5 * gap:
                return k
        if k_hi - k_lo <= gap * k_hi < math.inf:
            return k_hi
        step = _newton_step(k, m, dm, level) if i < _NEWTON_STEPS else None
        if step is not None:
            step = min(max(step, k_lo / (1.0 - gap)), k_hi * (1.0 - gap))
        if step is None or not k_lo < step < k_hi:
            if k_hi == math.inf:
                step = 2.0 * k_lo
            elif k_lo == 0.0:
                step = 0.5 * k_hi
            else:
                step = 0.5 * (k_lo + k_hi)
        if not 0.0 < step < math.inf:
            break
        k = step
    if k_lo > 0.0 and k_hi < math.inf:
        return k_hi
    raise BracketError(
        f"modular never crossed 1 within {_MAX_STEPS} steps "
        f"(bracket [{k_lo:g}, {k_hi:g}])"
    )


def _newton_step(k: float, m: float, dm: float, level: float) -> float | None:
    """Next k towards ``modular = level`` from the modular ``m`` at ``k`` and
    its slope ``dm`` in ``s = 1/k``.

    The step is Newton's on ``log m`` against ``log s``:
    ``k (m/level)**(1/e)`` with elasticity ``e = s m'/m >= 1``.  It is exact
    for a pure power, for which ``m`` is proportional to ``s**p``, and for a
    piecewise Phi it converges quadratically once near the root, where the
    plain step in ``s`` crawls from far away.  Returns None when ``m`` or
    ``m'`` is zero or not finite.
    """
    if not (0.0 < m < math.inf and 0.0 < dm < math.inf):
        return None
    return k * (m / level) ** (k * m / dm)


def _piece_descriptor(u: SampledFunction, a: float) -> tuple[float, float]:
    """(value at a+, decay rate) of u on an interval starting at a (no edges inside)."""
    if a < u.edges[0] - 1e-300:
        return 0.0, 0.0
    if a >= u.edges[-1]:
        if u.tail_rate is None:
            return 0.0, 0.0
        return float(u.values[-1]) * math.exp(-u.tail_rate * (a - u.edges[-1])), u.tail_rate
    k = int(np.searchsorted(u.edges, a, side="right")) - 1
    k = min(max(k, 0), len(u.values) - 1)
    return float(u.values[k]), 0.0


def holder_bound(
    phi: YoungFunction, u: SampledFunction, v: SampledFunction
) -> tuple[float, float]:
    """(integral |u v|, 2*||u||_{L_Phi} * ||v||_{L_Phi~}).

    The left side is exact: on every merged interval both factors are constant
    or single exponentials, and the joint tail (when both profiles carry one)
    integrates in closed form.
    """
    events = np.union1d(u.edges, v.edges)
    lhs = 0.0
    for a, b in zip(events[:-1], events[1:]):
        cu, ru = _piece_descriptor(u, a)
        cv, rv = _piece_descriptor(v, a)
        c, rate, width = cu * cv, ru + rv, b - a
        if c == 0.0:
            continue
        lhs += c * width if rate == 0.0 else -c * math.expm1(-rate * width) / rate
    top = float(events[-1])
    cu, ru = _piece_descriptor(u, top)
    cv, rv = _piece_descriptor(v, top)
    if cu * cv > 0.0 and ru + rv > 0.0:
        lhs += cu * cv / (ru + rv)
    rhs = 2.0 * luxemburg_norm(phi, u) * luxemburg_norm(complementary(phi), v)
    return lhs, rhs


def dvp_construct(f: SampledFunction) -> tuple[YoungFunction, dict]:
    """Build a Young function Phi with integral Phi(|f|) finite.

    De-la-Vallee-Poussin style: from the level-tail masses
    ``a_j = integral_{|f|>j} |f|`` choose nondecreasing slopes
    ``c_j = min(j+1, a_j**-0.5)`` and use them as the density on [j, j+1).
    Level 0 is realized as the ramp ``c_0*x`` (below the constant, so the
    finiteness estimate survives) and the top level as the growing ramp
    ``(J+1)*x/J``, which keeps the result inside the Young axioms.  The
    verification modular is exact for the sampled profile and is returned in
    the report; a non-finite value raises.
    """
    l1 = f.l1()
    if not math.isfinite(l1):
        raise OrliczError("profile is not integrable")
    vmax = f.sup_norm()
    if vmax == 0.0:
        phi = YoungFunction([Segment(0.0, "power", 2.0, 1.0)])
        return phi, {"levels": 0, "l1": 0.0, "modular": 0.0, "slopes": []}
    levels = int(math.ceil(vmax))
    if levels > _MAX_LEVELS:
        raise OrliczError(
            f"peak value {vmax:.3g} needs {levels} integer levels "
            f"(cap {_MAX_LEVELS}); sample the profile with a coarser floor"
        )
    js = np.arange(0, levels, dtype=float)
    order = np.argsort(f.values)
    vals_sorted = f.values[order]
    mass_sorted = (f.values * f.widths)[order]
    suffix = np.concatenate([np.cumsum(mass_sorted[::-1])[::-1], [0.0]])
    pos = np.searchsorted(vals_sorted, js, side="right")
    a_j = suffix[pos]
    if f.tail_rate is not None:
        amp = float(f.values[-1])
        a_j = a_j + np.where(js < amp, (amp - js) / f.tail_rate, 0.0)
    with np.errstate(divide="ignore"):
        slopes = np.minimum(js + 1.0, np.where(a_j > 0.0, a_j**-0.5, np.inf))
    slopes = np.maximum.accumulate(slopes)  # safeguard; already nondecreasing
    segments = [Segment(0.0, "power", float(slopes[0]), 1.0)]
    for j in range(1, levels):
        if segments[-1].kind == "const" and segments[-1].c == slopes[j]:
            continue
        segments.append(Segment(float(j), "const", float(slopes[j])))
    top = float(levels)
    segments.append(Segment(top, "power", (top + 1.0) / top, 1.0))
    phi = YoungFunction(segments)
    check = modular(phi, f, 1.0)
    if not math.isfinite(check):
        raise OrliczError("verification modular is not finite")
    report = {
        "levels": levels,
        "l1": l1,
        "modular": check,
        "slopes": [float(s) for s in slopes[: min(8, levels)]],
        "top_slope": top + 1.0,
    }
    return phi, report


def young_from_json(obj: dict) -> YoungFunction:
    try:
        segs = [
            Segment(float(d["x0"]), str(d["kind"]), float(d["c"]), float(d.get("r", 0.0)))
            for d in obj["segments"]
        ]
    except (KeyError, TypeError) as exc:
        raise OrliczError(f"malformed Young-function object: {exc}") from exc
    return YoungFunction(segs)
