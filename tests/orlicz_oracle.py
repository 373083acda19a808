"""The per-trial reference for the Orlicz certificate's re-verification.

The library draws every trial input first and integrates them all in one
Horner pass.  This is the plain loop it replaces: one ``input_map``, one
``space_norm`` and one validated ``SampledFunction`` per trial, drawn and
checked in trial order.
"""

import numpy as np

from admlab.admissibility import InputOperator, input_map
from admlab.orlicz import SampledFunction, luxemburg_norm
from admlab.signals import random_signal
from admlab.spectral import space_norm


def trial_norms(A, x0, phi, n_verify, seed, horizons):
    """(t, ||Phi_t u||, ||u||_{L_Phi}) of each seeded trial, in trial order."""
    B = InputOperator.aminus_x0(x0)
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(n_verify):
        t = horizons[trial % len(horizons)]
        u = random_signal(rng, t, int(rng.integers(3, 13)))
        lhs = space_norm(A, input_map(A, B, u, t))
        norm = luxemburg_norm(phi, SampledFunction(u.breakpoints, np.abs(u.values)))
        out.append((t, lhs, norm))
    return out


def failures(A, x0, phi, C, n_verify, seed, horizons):
    """The certificate messages of every failing trial, in trial order."""
    out = []
    for trial, (t, lhs, norm) in enumerate(
            trial_norms(A, x0, phi, n_verify, seed, horizons)):
        rhs = C * norm
        if lhs > rhs + 1e-8:
            out.append(
                f"certificate failed on trial {trial}: ||Phi_t u|| = {lhs} "
                f"> C ||u||_Phi = {rhs} at t = {t}"
            )
    return out
