"""The ISS / iISS envelope as it was before the trials shared one pass.

``admlab.certify._envelope_trials`` draws its trials in chunks, integrates
every window of every trial in a chunk in one stepper pass, tests the images
for a finite X norm in row blocks and takes a window's gain only where it
can change the result.  This is the per-trial loop it replaces, kept
verbatim as the bit-for-bit reference: one stepper pass per trial, one
``_left_x`` norm per window image, the initial state measured twice, and
every gain taken.  The stepper is the per-path one, with the plain Horner
loop of ``horner_reference``.
"""

import math

import numpy as np

from admlab.admissibility import AdmissibilityError, _input_form, _left_x, input_map
from admlab.signals import _GRID_ENTRIES, random_signal
from admlab.spectral import SpectralVector, _semigroup_factors, _weighted_norms, space_norm
from horner_reference import horner


class Stepper:
    """``admissibility._Stepper`` with one pass per path and one norm per image."""

    def __init__(self, A, B, times):
        B.check_alignment(A)
        self.A, self.B = A, B
        self.times = np.asarray(times, dtype=float).reshape(-1)
        self.prevs = np.concatenate([[0.0], self.times[:-1]])
        self.spans = self.times - self.prevs
        if not (np.isfinite(self.spans) & (self.spans > 0.0)).all():
            raise AdmissibilityError("evaluation time must lie in (0, horizon]")
        self.factors = {d: _semigroup_factors(A, d) for d in set(self.spans.tolist())}

    def states(self, x0, u, left=False):
        if not (self.spans <= u.breakpoints[-1] - self.prevs).all():
            raise AdmissibilityError("evaluation time must lie in (0, horizon]")
        for d, (forced, out) in zip(self.spans.tolist(), self._images(u)):
            left = out or left
            x = x0 * self.factors[d] + forced
            yield x, left
            x0 = x

    def _images(self, u):
        A, B = self.A, self.B
        if u.kind == "probe" or len(self.spans) <= 1:
            for p, d in zip(self.prevs.tolist(), self.spans.tolist()):
                v = input_map(A, B, u.shift_origin(p).restrict(d).reversed_signal(), d)
                yield v.coefficients, v.scale == "Xm1"
            return
        scale, cols = _input_form(A, B, u)
        widths, vals, starts = u._windows(self.times)
        for ints in horner(A.eigenvalues, widths, vals, u.per_mode, starts, cols):
            forced = ints if cols is not None else scale * ints
            yield forced, _left_x(A, forced)


def envelope_trials(A, B, gains, n_trials, horizon, seed, n_times):
    """(max lhs/rhs ratio, violations) of the seeded envelope trials."""
    rng = np.random.default_rng(seed)
    m = B.n_inputs(A)
    times = np.linspace(horizon / n_times, horizon, n_times)
    decay = [math.exp(-A.delta * t) for t in times.tolist()]
    stepper = Stepper(A, B, times)
    rows = min(n_times, max(1, _GRID_ENTRIES // A.n_modes))
    block = np.empty((rows, A.n_modes), dtype=complex)
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
        lhs, held = np.full(n_times, math.inf), []
        for j, (x, left) in enumerate(stepper.states(x0.coefficients, u)):
            if not left:
                block[len(held)] = x
                held.append(j)
            if held and (len(held) == len(block) or j == n_times - 1):
                lhs[held] = _weighted_norms(A.weights, block[: len(held)])
                held = []
        g = gains(u, times)
        for j, (t, d, l) in enumerate(zip(times.tolist(), decay, lhs.tolist())):
            rhs = d * x0n + float(g(j))
            if rhs > 0.0:
                max_ratio = max(max_ratio, l / rhs)
            if l > rhs + 1e-8:
                violations.append({"trial": trial, "t": t, "lhs": l, "rhs": rhs})
    return max_ratio, violations
