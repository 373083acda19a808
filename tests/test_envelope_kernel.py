"""The cheaper Horner step and the whole-path envelope gains.

Property tests hold the new kernel paths to their references: the running-max
ISS gains to the restricted signals' sup norms bit for bit, the row-wise norm
pass to the one-vector norm bit for bit, and the z/λ piece weight (with its
Δ·h(λΔ) fallback) to 40-digit mpmath.  Count-based guards, with no timing,
keep the per-sample work from coming back: no (e^w - 1)/w division for a
generic spectrum, no signal object per sample, no n×m accumulator.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import certify, signals
from admlab.admissibility import InputOperator, _Stepper, trajectory
from admlab.certify import iss_certificate
from admlab.signals import PiecewiseSignal, mode_integrals, random_signal
from admlab.spectral import DiagonalGenerator, SpectralVector, _weighted_norm, _weighted_norms


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_channels=st.integers(1, 3),
    n_pieces=st.integers(1, 12),
    horizon=st.floats(0.01, 20.0),
    slope=st.floats(0.0, 1e3),
)
def test_running_max_gains_are_the_restricted_sup_norms(
        seed, n_channels, n_pieces, horizon, slope):
    rng = np.random.default_rng(seed)
    u = random_signal(rng, horizon, n_pieces, n_channels=n_channels,
                      amplitude=float(rng.uniform(0.1, 3.0)))
    # inside pieces, on every breakpoint, and at the horizon
    times = np.sort(np.concatenate([rng.uniform(0.0, horizon, 6), u.breakpoints[1:]]))
    times = times[times > 0.0]
    gains = slope * u._running_sup(times)
    for t, g in zip(times.tolist(), gains.tolist()):
        assert g == slope * u.restrict(t).sup_norm()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), rows=st.integers(1, 9),
       overflow=st.booleans())
def test_row_norms_are_the_vector_norms(seed, n, rows, overflow):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    if overflow:
        x[rng.integers(rows), rng.integers(n)] = 1e200
    w = rng.uniform(0.1, 3.0, n)
    got = _weighted_norms(w, x)
    for row, norm in zip(x, got.tolist()):
        assert norm == _weighted_norm(w, row)
    assert math.isinf(got.max()) == overflow


def _mp_integral(mp, lam, width):
    """∫₀^Δ e^{λs} ds = (e^{λΔ} - 1)/λ at 40 digits, Δ at λ = 0."""
    lam = mp.mpc(lam.real, lam.imag)
    return width if lam == 0 else mp.expm1(lam * width) / lam


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(-3, 3),
    offset=st.complex_numbers(max_magnitude=1e-3, allow_nan=False, allow_infinity=False),
    power=st.integers(-3, 3),
    decay=st.floats(0.0, 1e-6),
)
def test_piece_weights_match_mpmath_near_the_zeros_of_e_w_minus_1(k, offset, power, decay):
    # w = λΔ next to 2πik, where e^w - 1 is small; a power-of-two width keeps
    # the float product λΔ exact, so the reference is evaluated at the same w
    mp = pytest.importorskip("mpmath")
    width = 2.0**power
    lam = (2j * math.pi * k + offset - decay) / width
    with mp.workdps(40):
        exact = complex(_mp_integral(mp, lam, width))
    got = mode_integrals([lam], PiecewiseSignal([0.0, width], [1.0]))[0]
    assert abs(got - exact) <= 1e-14 * abs(exact)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    re=st.floats(-1.0, 0.0),
    im=st.floats(-1.0, 1.0),
    exponent=st.integers(-1074, -980),
    width=st.floats(1e-12, 20.0),
)
def test_tiny_eigenvalues_keep_full_accuracy(re, im, exponent, width):
    # λ subnormal, or λΔ below the normal range: 1/λ overflows, or z = e^{λΔ}
    # - 1 has lost its digits, and the weight falls back to Δ·h(λΔ)
    mp = pytest.importorskip("mpmath")
    lam = complex(re, im) * 2.0**exponent
    with mp.workdps(40):
        exact = complex(_mp_integral(mp, lam, width))
    got = mode_integrals([lam, -1.0], PiecewiseSignal([0.0, width], [1.0]))[0]
    assert abs(got - exact) <= 1e-15 * abs(exact)


def _count_h_calls(monkeypatch):
    calls = []
    h = signals._h

    def counting(w, em1=None):
        calls.append(np.size(w))
        return h(w, em1)

    monkeypatch.setattr(signals, "_h", counting)
    return calls


def test_a_generic_spectrum_integrates_without_h(monkeypatch):
    calls = _count_h_calls(monkeypatch)
    rng = np.random.default_rng(3)
    n = 64
    lams = -rng.uniform(0.1, 50.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
    for m in (1, 3):
        u = random_signal(rng, 2.0, 7, n_channels=m)
        mode_integrals(lams, u)
    mode_integrals(lams, PiecewiseSignal([0.0, 0.5, 2.0], rng.normal(size=(2, n)),
                                         per_mode=True))
    A = DiagonalGenerator(lams)
    B = InputOperator.columns(rng.normal(size=(n, 2)) + 0j)
    u = random_signal(rng, 2.0, 7, n_channels=2)
    list(_Stepper(A, B, [0.5, 1.0, 2.0]).paths([np.zeros(n, dtype=complex)], [u]))
    assert calls == []
    # a zero eigenvalue takes the Δ·h(λΔ) weight, for its own mode only
    mode_integrals(np.append(lams, 0.0), u)
    assert calls and max(calls) == 1


def test_iss_certificate_builds_about_one_signal_per_trial(monkeypatch):
    built = []
    init = PiecewiseSignal.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseSignal, "__init__", counting)
    rng = np.random.default_rng(5)
    n, n_trials = 32, 6
    A = DiagonalGenerator(-np.arange(1.0, n + 1) + 1j * rng.uniform(-1.0, 1.0, n))
    for B in (InputOperator.aminus_x0(rng.normal(size=n) / np.arange(1, n + 1) ** 2),
              InputOperator.columns(rng.normal(size=(n, 2)) / np.arange(1, n + 1)[:, None])):
        built.clear()
        iss_certificate(A, B, n_trials=n_trials, n_times=9, seed=2)
        # one random input per trial; a signal per sample would make it 60
        assert len(built) <= n_trials + 1


def test_state_norm_blocks_match_one_block(monkeypatch):
    # an undersized slope makes violations, so every lhs is compared too
    rng = np.random.default_rng(9)
    n = 64
    A = DiagonalGenerator(-np.arange(1.0, n + 1) * (1.0 + 0.2j))
    B = InputOperator.columns(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    kwargs = dict(n_trials=4, n_times=9, seed=4, adm_bound_override=1e-3,
                  raise_on_violation=False)
    whole = iss_certificate(A, B, **kwargs)
    assert whole["violations"]
    monkeypatch.setattr(certify, "_GRID_ENTRIES", 2 * n)  # two states a block
    assert iss_certificate(A, B, **kwargs) == whole


def test_two_column_paths_allocate_no_n_by_m_accumulator(monkeypatch):
    n, m = 256, 2
    shapes = []
    zeros = np.zeros

    def recording(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        return zeros(shape, *args, **kwargs)

    rng = np.random.default_rng(8)
    A = DiagonalGenerator(-np.arange(1.0, n + 1) * (1.0 + 0.3j))
    B = InputOperator.columns(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    u = random_signal(rng, 3.0, 10, n_channels=m)
    x0 = SpectralVector(np.zeros(n, dtype=complex))
    monkeypatch.setattr(np, "zeros", recording)
    x = trajectory(A, B, x0, u, 2.5)
    states = list(_Stepper(A, B, [1.0, 2.0, 3.0]).paths([x0.coefficients], [u]))
    monkeypatch.undo()
    assert shapes and all(s == (n,) for s in shapes)
    assert x.coefficients.shape == (n,)
    assert all(state.shape == (n,) for state, _ in states)
