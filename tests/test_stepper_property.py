"""Property tests: the Horner mode integrals and chained trajectories against
their closed forms, on random spectra and signals.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
Errors are measured against the scale of the sum being formed (the sum of
the absolute values of its terms), so a value that cancels is held to the
accuracy its terms allow and no tighter.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.admissibility import InputOperator, trajectory
from admlab.signals import PiecewiseSignal, _expdiff_matrix, mode_integrals
from admlab.spectral import DiagonalGenerator, SpectralVector

REL = 1e-13
FLOOR = 1e-290  # below this, subnormal results carry no relative accuracy


def _spectrum(rng, n):
    """Decay rates from 1e-3 to 1e4 (some e^{lambda s} underflow), phases to 60 deg."""
    re = -(10.0 ** rng.uniform(-3.0, 4.0, n))
    return re + 1j * np.abs(re) * rng.uniform(-1.7, 1.7, n)


def _signal(rng, n, layout, horizon):
    k = int(rng.integers(1, 13))
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, k - 1)), [horizon]])
    bp = np.unique(bp)
    shape = {"scalar": (len(bp) - 1,), "channels": (len(bp) - 1, 3),
             "per-mode": (len(bp) - 1, n)}[layout]
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return PiecewiseSignal(bp, vals, per_mode=layout == "per-mode")


def _dense(lams, u):
    """The n x K closed form E[n, k] = e^{lambda s_k} Delta_k h(lambda Delta_k), summed."""
    with np.errstate(under="ignore"):
        E = _expdiff_matrix(lams, u.breakpoints)
    if u.per_mode:
        return np.einsum("nk,kn->n", E, u.values), np.einsum(
            "nk,kn->n", np.abs(E), np.abs(u.values))
    return E @ u.values, np.abs(E) @ np.abs(u.values)


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    layout=st.sampled_from(["scalar", "channels", "per-mode"]),
    horizon=st.floats(0.01, 20.0),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**CASES)
def test_horner_mode_integrals_equal_the_dense_closed_form(seed, n, layout, horizon):
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    u = _signal(rng, n, layout, horizon)
    want, scale = _dense(lams, u)
    got = mode_integrals(lams, u)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= REL * scale + FLOOR)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**CASES, tau=st.floats(0.01, 0.99))
def test_shift_split_identity(seed, n, layout, horizon, tau):
    # int_0^t = int_0^tau + e^{lambda tau} int_0^{t - tau} of u(tau + .)
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    u = _signal(rng, n, layout, horizon)
    tau *= horizon
    with np.errstate(under="ignore"):
        decay = np.exp(lams * tau)
    if layout == "channels":
        decay = decay[:, None]
    head = mode_integrals(lams, u.restrict(tau))
    tail = mode_integrals(lams, u.shift_origin(tau))
    _, scale = _dense(lams, u)
    got = head + decay * tail
    assert np.all(np.abs(got - mode_integrals(lams, u)) <= REL * scale + FLOOR)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(["columns", "aminus_x0", "aminus_full"]),
    horizon=st.floats(0.01, 20.0),
    n_times=st.integers(1, 9),
)
def test_chained_windows_equal_single_trajectories(seed, n, kind, horizon, n_times):
    # x(t_j) = trajectory(x(t_{j-1}), u(t_{j-1} + .), t_j - t_{j-1}) for every j
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    A = DiagonalGenerator(lams)
    if kind == "columns":
        B, layout = InputOperator.columns(rng.normal(size=(n, 3)) + 0j), "channels"
        b = np.abs(B.data).sum(axis=1)
    elif kind == "aminus_x0":
        B, layout = InputOperator.aminus_x0(rng.normal(size=n) + 1j), "scalar"
        b = np.abs(lams * B.data)
    else:
        B, layout = InputOperator.aminus_full(), "per-mode"
        b = np.abs(lams)
    u = _signal(rng, n, layout, horizon)
    x0 = SpectralVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    vmax = float(np.max(np.abs(u.values)))
    times = np.sort(rng.uniform(0.0, horizon, n_times))
    times[-1] = horizon
    times = np.unique(times[times > 0.0])
    x, prev = x0, 0.0
    for t in times:
        t = float(t)
        x = trajectory(A, B, x, u.shift_origin(prev), t - prev)
        prev = t
        want = trajectory(A, B, x0, u, t).coefficients
        # |e^{lambda t} x0| + |b| sup|u| int_0^t e^{Re lambda s} ds
        with np.errstate(under="ignore"):
            scale = (np.abs(np.exp(lams * t) * x0.coefficients)
                     + b * vmax * np.expm1(lams.real * t) / lams.real)
        assert np.all(np.abs(x.coefficients - want) <= REL * scale + FLOOR)
