"""Property tests: the Horner mode integrals and chained trajectories against
their closed forms, and the path stepper against the chained calls bit for
bit, on random spectra and signals.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
Errors are measured against the scale of the sum being formed (the sum of
the absolute values of its terms), so a value that cancels is held to the
accuracy its terms allow and no tighter.
"""

import json
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admlab import signals
from admlab.admissibility import InputOperator, _Stepper, trajectory
from admlab.certify import _envelope_trials
from admlab.cli import run
from admlab.signals import PiecewiseSignal, mode_integrals
from admlab.spectral import DiagonalGenerator, SpectralVector
from dense_lower import expdiff_matrix

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
        E = expdiff_matrix(lams, u.breakpoints)
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


def _operator(rng, n, kind):
    """(B, signal layout) for each input form."""
    if kind == "scalar":
        return InputOperator.columns(rng.normal(size=(n, 1)) + 1j), "scalar"
    if kind == "channels":
        return InputOperator.columns(rng.normal(size=(n, 3)) + 0j), "channels"
    if kind == "aminus_x0":
        return InputOperator.aminus_x0(rng.normal(size=n) + 1j), "scalar"
    return InputOperator.aminus_full(), "per-mode"


def _sample_times(rng, u, horizon, n_times):
    """Sorted positive times up to ``horizon``, some exactly on breakpoints."""
    inner = u.breakpoints[(u.breakpoints > 0.0) & (u.breakpoints <= horizon)]
    picks = rng.choice(inner, size=min(len(inner), int(rng.integers(0, 4))), replace=False)
    times = np.concatenate([rng.uniform(0.0, horizon, n_times), picks, [horizon]])
    return np.unique(times[times > 0.0])


def _bits(z):
    return np.ascontiguousarray(z).view(float)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(["scalar", "channels", "aminus_x0", "aminus_full"]),
    signal_horizon=st.floats(0.01, 20.0),
    cut=st.sampled_from([1.0, 0.999, 0.6, 0.25]),
    n_times=st.integers(0, 9),
    probe=st.booleans(),
)
# z·(1/λ) taken over a whole block, not per piece row, rounded this case's
# one-mode (1, 1) product apart from the chained call's (1,) product
@example(seed=1, n=1, kind="scalar", signal_horizon=2.0, cut=0.25, n_times=0, probe=False)
def test_stepper_states_are_the_chained_trajectories_bit_for_bit(
        seed, n, kind, signal_horizon, cut, n_times, probe):
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    A = DiagonalGenerator(lams)
    B, layout = _operator(rng, n, kind)
    probe = probe and layout != "channels"  # a probe is one scalar channel
    if probe:
        mu = complex(rng.uniform(-1.0, 3.0), rng.uniform(-5.0, 5.0))
        u = PiecewiseSignal([0.0, signal_horizon], [complex(*rng.normal(size=2))],
                            "probe", probe_mu=mu)
    else:
        u = _signal(rng, n, layout, signal_horizon)
    # a sample horizon at or short of the signal's
    times = _sample_times(rng, u, signal_horizon * cut, n_times)
    x0 = SpectralVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    got = list(_Stepper(A, B, times).paths([x0.coefficients], [u]))
    assert len(got) == len(times)
    x, prev, chained = x0, 0.0, []
    for t, (state, left) in zip(times, got):
        t = float(t)
        x = trajectory(A, B, x, u.shift_origin(prev), t - prev)
        assert np.array_equal(_bits(state), _bits(x.coefficients))
        assert left == (x.scale == "Xm1")
        if not probe:
            window = u.shift_origin(prev).restrict(t - prev).reversed_signal()
            chained.append((np.diff(window.breakpoints), window.values))
        prev = t
    if not probe and len(times):
        widths, vals, starts = u._windows(times)
        assert len(starts) == len(times)
        # the helper lays the windows out last first
        for (want_w, want_v), w, v in zip(chained[::-1], np.split(widths, starts[1:]),
                                          np.split(vals, starts[1:])):
            assert np.array_equal(w, want_w)
            assert np.array_equal(_bits(v), _bits(want_v))


def test_every_e_w_minus_1_call_stays_within_the_block_cap(monkeypatch, tmp_path):
    # An unblocked stepper would take all (K + T) x n piece-mode pairs at once.
    n = 8192
    sizes = []
    expm1 = signals._expm1

    def recording(w):
        sizes.append(np.size(w))
        return expm1(w)

    monkeypatch.setattr(signals, "_expm1", recording)
    rng = np.random.default_rng(4)
    A = DiagonalGenerator.from_ray(1.0, 1.0, 0.3, n)
    x0 = rng.normal(size=n) / np.arange(1, n + 1) + 0j
    B = InputOperator.aminus_x0(x0)
    u = signals.random_signal(rng, 4.0, 10)
    trajectory(A, B, SpectralVector(x0), u, 3.0)
    _envelope_trials(A, B, lambda u, times: lambda j: 1.0, n_trials=3, horizon=4.0,
                     seed=1, n_times=9)
    scenario = tmp_path / "simulate.json"
    scenario.write_text(json.dumps({
        "generator": {"kind": "ray", "base": -1.0, "exponent": 1.0, "angle": 0.3,
                      "count": n},
        "input_operator": {"kind": "aminus_x0",
                           "x0": [[float(z.real), 0.0] for z in x0]},
        "signal": {"kind": "random", "n_pieces": 10, "horizon": 4.0},
        "seed": 2,
    }))
    assert run("simulate", str(scenario), out=str(tmp_path), quiet=True) == 0
    assert len(sizes) > 3 * 10 + 10
    assert max(sizes) <= max(signals._BLOCK_ENTRIES, n)


def test_stepper_memory_does_not_grow_with_the_sample_count():
    # 1000 windows at 1024 modes: holding every window's integral would take
    # 16 MB; streamed, a path needs a few n-vectors and one block at a time.
    n, n_times = 1024, 1000
    rng = np.random.default_rng(6)
    A = DiagonalGenerator.from_ray(1.0, 1.0, 0.3, n)
    B = InputOperator.columns(rng.normal(size=(n, 1)) + 0j)
    u = signals.random_signal(rng, 4.0, 10)
    stepper = _Stepper(A, B, np.linspace(4.0 / n_times, 4.0, n_times))
    x0 = np.zeros(n, dtype=complex)
    tracemalloc.start()
    try:
        count = sum(1 for _ in stepper.paths([x0], [u]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == n_times
    assert peak < 2_000_000
