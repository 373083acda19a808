"""The ISS / iISS envelope in one pass per certificate, against the per-trial
loop of ``envelope_reference.py`` bit for bit, and the premise of its gain
skip against the Luxemburg norm itself.

The envelope draws its trials in chunks, integrates all windows of a chunk in
one stepper pass, tests the images for a finite X norm in row blocks and
takes a window's gain only where it can change the result; the reference
does none of this.  Both must give the same ``max_ratio`` bits, the same
violations and the same "left X" warnings.  The skip rests on the window
gains never falling along a trial by more than ``certify._GAIN_FLOOR``,
which the last property checks on the window profiles the iISS gains use.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import certify
from admlab.admissibility import InputOperator
from admlab.orlicz import (
    SampledFunction,
    Segment,
    YoungFunction,
    compose_sqrt,
    luxemburg_norm,
    power_young,
)
from admlab.signals import random_signal
from admlab.spectral import DiagonalGenerator

import envelope_reference

# the Young functions of the iISS goldens and the benchmark
PSIS = {
    "power 2": power_young(2.0),
    "power 3": power_young(3.0, 0.5),
    "segments": YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(1.0, "const", 3.0, 0.0),
         Segment(2.0, "power", 1.5, 1.0)]
    ),
}


def _operator(rng, n, m, leave):
    """m columns, or A_{-1}x0 for one channel; ``leave`` scales one mode's
    column so that some images overflow the X norm and some do not."""
    if m == 1 and rng.random() < 0.5 and not leave:
        return InputOperator.aminus_x0(rng.normal(size=n) / np.arange(1, n + 1) + 0j)
    cols = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    if leave:
        cols[0] *= 10.0 ** rng.uniform(150.0, 155.0)
    return InputOperator.columns(cols)


def _gains(kind, size, luxemburg):
    """ISS-style (slope times the running sup) or iISS-style (C times the
    windows' Luxemburg norms) gains as functions of the window index; the
    change calls the iISS ones only where it needs them, as
    ``iiss_certificate`` does, the reference calls them all."""
    if kind == "iss":
        return lambda u, times: (size * u._running_sup(times)).item
    phi = compose_sqrt(PSIS["segments"])

    def norm(profile):
        luxemburg.append(1)
        return size * luxemburg_norm(phi, SampledFunction._cut(*profile))

    return lambda u, times: lambda j: norm(u._prefix_profile(times[j]))


def _run(envelope, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = envelope(*args)
    return result, [str(w.message) for w in caught if w.category is UserWarning]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    m=st.sampled_from([1, 2]),
    kind=st.sampled_from(["iss", "iiss"]),
    size=st.sampled_from([1e-3, 0.3, 10.0]),  # undersized ones make violations
    n_trials=st.integers(1, 7),
    n_times=st.sampled_from([1, 2, 6, 9]),
    per_chunk=st.sampled_from([1, 2, 3, None]),
    leave=st.booleans(),
)
def test_the_one_pass_envelope_is_the_per_trial_loop_bit_for_bit(
        seed, n, m, kind, size, n_trials, n_times, per_chunk, leave):
    rng = np.random.default_rng(seed)
    lams = -(10.0 ** rng.uniform(-1.0, 2.0, n)) * (1.0 + 1j * rng.uniform(-1.0, 1.0, n))
    A = DiagonalGenerator(lams)
    if kind == "iiss":
        m = 1  # the Orlicz window norms take one scalar channel
    B = _operator(rng, n, m, leave)
    horizon = float(rng.uniform(0.2, 8.0))
    args = (n_trials, horizon, seed, n_times)
    luxemburg = []
    want, want_warned = _run(envelope_reference.envelope_trials, A, B,
                             _gains(kind, size, []), *args)
    entries = certify._GRID_ENTRIES if per_chunk is None else per_chunk * n
    with mock.patch.object(certify, "_GRID_ENTRIES", entries):  # trials per chunk
        got, got_warned = _run(certify._envelope_trials, A, B,
                               _gains(kind, size, luxemburg), *args)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1] == want[1]
    assert got_warned == want_warned
    assert len(luxemburg) <= n_trials * n_times


def test_the_skip_leaves_out_window_norms():
    # the iISS golden's Young function on a spread spectrum: most later
    # windows sit under the running ratio, and their norms are not taken
    rng = np.random.default_rng(3)
    n = 32
    A = DiagonalGenerator(-np.arange(1.0, n + 1) * (1.0 + 0.5j))
    B = InputOperator.aminus_x0(rng.normal(size=n) / np.arange(1, n + 1) ** 1.5 + 0j)
    luxemburg = []
    got = certify._envelope_trials(A, B, _gains("iiss", 2.0, luxemburg), 20, 4.0, 1, 6)
    want = envelope_reference.envelope_trials(A, B, _gains("iiss", 2.0, []), 20, 4.0, 1, 6)
    assert got == want
    assert len(luxemburg) < 20 * 6 * 3 // 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pieces=st.integers(1, 12),
    horizon=st.floats(0.01, 20.0),
    which=st.sampled_from(sorted(PSIS)),
    n_times=st.integers(1, 12),
)
def test_window_norms_never_fall_by_more_than_the_floor_margin(
        seed, n_pieces, horizon, which, n_times):
    # t -> ||u||_{L_Phi(0, t)} is nondecreasing; the computed norms may fall
    # only by their own tolerance, which the skip's floor must cover
    phi = compose_sqrt(PSIS[which])
    rng = np.random.default_rng(seed)
    u = random_signal(rng, horizon, n_pieces, amplitude=float(rng.uniform(0.1, 3.0)))
    # equispaced as in the envelope, plus every breakpoint and points just past one
    times = np.concatenate([np.linspace(horizon / n_times, horizon, n_times),
                            u.breakpoints[1:], np.nextafter(u.breakpoints[1:-1], np.inf),
                            rng.uniform(0.0, horizon, 4)])
    times = np.unique(times[(times > 0.0) & (times <= horizon)])
    norms = [luxemburg_norm(phi, SampledFunction._cut(*u._prefix_profile(t))) for t in times]
    running = np.maximum.accumulate(norms)
    assert (np.array(norms[1:]) >= running[:-1] * (1.0 - certify._GAIN_FLOOR)).all()
