"""Piecewise inputs, closed-form mode integrals, and worst-case phase search."""

import itertools
import math
import warnings

import numpy as np
import pytest

from admlab.signals import (
    PiecewiseSignal,
    SignalError,
    _expm1,
    _horner,
    counterexample_intervals,
    mode_integrals,
    random_signal,
)
from dense_counterexample import counterexample_input
from dense_lower import worst_case_phases

MODES = np.array([-1.0, -2.0 + 1.5j, -1e-9, -1e-9 + 1e-9j], dtype=complex)


def _riemann(lam, u, n=200_000):
    """Midpoint cross-check, gridded piece by piece so jumps stay on edges."""
    total = 0.0 + 0.0j
    for k in range(u.n_pieces):
        a, b = u.breakpoints[k], u.breakpoints[k + 1]
        s = a + (np.arange(n) + 0.5) * ((b - a) / n)
        total += u.values[k] * np.sum(np.exp(lam * s)) * ((b - a) / n)
    return total


def test_mode_integrals_match_riemann():
    rng = np.random.default_rng(7)
    u = random_signal(rng, horizon=2.0, n_pieces=5)
    closed = mode_integrals(MODES, u)
    for n, lam in enumerate(MODES):
        assert closed[n] == pytest.approx(_riemann(lam, u), rel=1e-9)


def _mp_h(mp, w):
    """(e^w - 1)/w at 40 digits, evaluated at the float w itself."""
    w = mp.mpc(w.real, w.imag)
    return mp.mpf(1) if w == 0 else mp.expm1(w) / w


TWO_PI = 2.0 * math.pi
# (lambda, probe mu or None): a probe on [0, 1.5], else the unit signal on [0, 1]
ORACLE_CASES = {
    "below-0.25": (-0.25 * (1 - 1e-6), None),
    "above-0.25": (-0.25 * (1 + 1e-6), None),
    "tiny": (-1e-9, None),
    "subnormal-scale": (-1e-300, None),
    "near-2pi-i": (-1e-9 + TWO_PI * 1j, None),
    "near-4pi-i": (-1e-6 + 2 * TWO_PI * 1j, None),
    "probe-growing": (-1.0 + 0.5j, -30.0 - 2.0j),
    "probe-lambda-eq-mu": (-2.0 + 1.0j, -2.0 + 1.0j),
    "lambda-zero": (0.0, None),
    "subnormal-lambda": (2.0**-1023 * 1j, None),
    "probe-subnormal-w": (2.0**-1023 * (1 + 1j), 0.0),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_mode_integrals_match_mpmath(case):
    # the (e^w - 1)/w kernel against 40 digits, across the old series seam
    # at |w| = 0.25, at tiny |w| and next to the zeros w in 2 pi i Z
    mp = pytest.importorskip("mpmath")
    lam, mu = ORACLE_CASES[case]
    lam = complex(lam)
    if mu is None:
        u, w, scale = PiecewiseSignal([0.0, 1.0], [1.0 + 0j]), lam, 1.0
    else:
        u = PiecewiseSignal([0.0, 1.5], [0.5 - 0.25j], "probe", probe_mu=mu)
        w, scale = (lam - complex(mu)) * 1.5, (0.5 - 0.25j) * 1.5
    with mp.workdps(40):
        exact = complex(scale * _mp_h(mp, w))
    assert abs(mode_integrals([lam], u)[0] - exact) <= 1e-14 * abs(exact)


def test_overflowing_probe_raises_a_named_error():
    # e^{(lambda - mu) t} = e^{799} is beyond double precision
    u = PiecewiseSignal([0, 1], [1.0], "probe", probe_mu=-800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow RuntimeWarning
        with pytest.raises(SignalError, match=r"lambda=\(-1\+0j\), mu=\(-800\+0j\) on horizon 1"):
            mode_integrals([-1.0], u)
    near = PiecewiseSignal([0, 1], [1.0], "probe", probe_mu=-700.0)
    assert np.isfinite(mode_integrals([-1.0], near)).all()  # e^{699} is in range


def test_linearity():
    rng = np.random.default_rng(8)
    u = random_signal(rng, horizon=1.5, n_pieces=4)
    v = PiecewiseSignal(u.breakpoints, 2.5 * u.values)
    w = PiecewiseSignal(u.breakpoints, u.values + (0.3 - 0.1j))
    ones = PiecewiseSignal(u.breakpoints, np.ones(u.n_pieces, dtype=complex))
    iu = mode_integrals(MODES, u)
    np.testing.assert_allclose(mode_integrals(MODES, v), 2.5 * iu, rtol=1e-14)
    np.testing.assert_allclose(
        mode_integrals(MODES, w),
        iu + (0.3 - 0.1j) * mode_integrals(MODES, ones),
        rtol=1e-13,
    )


def test_shift_split_identity():
    # int_0^t = int_0^tau + e^{lam tau} * int_0^{t-tau} of the shifted signal
    rng = np.random.default_rng(9)
    u = random_signal(rng, horizon=2.0, n_pieces=6)
    for tau in (0.7, float(u.breakpoints[3])):
        head = mode_integrals(MODES, u.restrict(tau))
        tail = mode_integrals(MODES, u.shift_origin(tau))
        np.testing.assert_allclose(
            mode_integrals(MODES, u),
            head + np.exp(MODES * tau) * tail,
            rtol=1e-14,
            atol=1e-17,
        )


def test_scale_time_identity():
    rng = np.random.default_rng(10)
    u = random_signal(rng, horizon=1.0, n_pieces=3)
    c = 2.75
    for lam in MODES:
        assert mode_integrals([lam], u.scale_time(c))[0] == pytest.approx(
            c * mode_integrals([c * lam], u)[0], rel=1e-14
        )


def test_probe_closed_form_and_sup_norm():
    amp, mu, t = 1.3 - 0.4j, -0.5, 2.0
    probe = PiecewiseSignal([0.0, t], [amp], "probe", mu)
    for lam in MODES:
        expect = amp * (np.exp((lam - mu) * t) - 1.0) / (lam - mu)
        assert mode_integrals([lam], probe)[0] == pytest.approx(expect, rel=1e-12)
    # Re mu < 0 means the envelope |amp| e^{-mu s} grows toward the right end
    assert probe.sup_norm() == pytest.approx(abs(amp) * math.exp(0.5 * t), rel=1e-12)
    shifted = probe.shift_origin(0.5)
    assert shifted.kind == "probe"
    assert shifted.values[0] == pytest.approx(amp * math.exp(0.25), rel=1e-14)
    assert shifted.horizon == pytest.approx(1.5)


def _expm1_full_formula(w):
    """Re and Im of e^w - 1 by the full-array formula, every entry computed."""
    em1 = np.expm1(w.real)
    ex = em1 + 1.0
    half = np.sin(0.5 * w.imag)
    return em1 - 2.0 * ex * half * half, ex * np.sin(w.imag)


@pytest.mark.parametrize("dead_share", [0.0, 0.3, 0.9, 1.0])
def test_expm1_skips_underflowed_entries_bit_for_bit(dead_share):
    # all live, mixed (full formula), mostly underflowed (live entries only)
    # and all underflowed; imaginary parts up to 1e4, where sin is slow
    rng = np.random.default_rng(21)
    n = 4000
    re = rng.uniform(-30.0, 5.0, n)
    dead = rng.random(n) < dead_share
    re[dead] = rng.uniform(-5000.0, -746.0, int(dead.sum()))
    w = (re + 1j * rng.uniform(-1e4, 1e4, n)).reshape(40, 100)
    with np.errstate(under="ignore"):
        want_re, want_im = _expm1_full_formula(w)
        got = _expm1(w)
    assert got.shape == w.shape
    assert np.array_equal(got.real, want_re)
    nonzero = want_im != 0.0
    assert np.array_equal(got.imag[nonzero], want_im[nonzero])
    assert np.all(got.imag[~nonzero] == 0.0)  # up to the sign of zero
    assert np.all(got.real[dead.reshape(w.shape)] == -1.0)


def test_a_run_integrates_to_the_same_bits_alone_and_in_a_pass():
    # |λ0|·Δ is subnormal only for the other run's 1e-9 piece, so the weight
    # rule must be decided piece by piece, not from the pass's smallest width
    lams = np.array([-1e-300, -1.0 + 0.5j])
    vals = np.array([0.4 - 0.2j, -1.1 + 0.3j, 0.7 + 0.9j, 1.3 - 0.6j])
    widths = np.array([1e-9, 0.5, 0.3, 0.7])
    second, first = _horner(lams, widths, vals, starts=(0, 2))  # last run first
    (alone,) = _horner(lams, widths[2:], vals[2:])
    assert second.tobytes() == alone.tobytes()
    (alone,) = _horner(lams, widths[:2], vals[:2])
    assert first.tobytes() == alone.tobytes()


def test_expm1_of_a_scalar():
    assert _expm1(0.0) == 0.0
    assert _expm1(-800.0 + 3.0j) == -1.0
    tiny = _expm1(1e-20j)  # cos y - 1 + i sin y, both parts to full accuracy
    assert tiny.real == pytest.approx(-5e-41, rel=1e-15) and tiny.imag == 1e-20


def test_reversed_probe_is_the_closed_form_probe():
    # u(t - s) = (a e^{-mu t}) e^{mu s}: amplitude a e^{-mu t}, parameter -mu
    amp, mu, t = 1.3 - 0.4j, -0.5 + 2.0j, 2.0
    probe = PiecewiseSignal([0.0, t], [amp], "probe", mu)
    rev = probe.reversed_signal()
    assert rev.kind == "probe" and rev.horizon == t and rev.probe_mu == -mu
    for s in (0.0, 0.3, 1.7, t):
        assert rev.values[0] * np.exp(-rev.probe_mu * s) == pytest.approx(
            amp * np.exp(-mu * (t - s)), rel=1e-14
        )
    back = rev.reversed_signal()
    assert back.probe_mu == mu and back.values[0] == pytest.approx(amp, rel=1e-14)
    # the reversed probe integrates to the mild-solution kernel in closed form
    for lam in MODES:
        expect = amp * (np.exp(lam * t) - np.exp(-mu * t)) / (lam + mu)
        assert mode_integrals([lam], rev)[0] == pytest.approx(expect, rel=1e-12)


def test_overflowing_probe_value_raises_a_named_error():
    probe = PiecewiseSignal([0.0, 1.0], [2.0], "probe", probe_mu=-800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SignalError, match=r"probe value .*mu=\(-800\+0j\) at s=1"):
            probe.reversed_signal()
        with pytest.raises(SignalError, match=r"probe value .*at s=0.95"):
            probe.shift_origin(0.95)
    assert probe.shift_origin(0.5).values[0] == pytest.approx(2.0 * math.exp(400.0))
    zero = PiecewiseSignal([0.0, 1.0], [0.0], "probe", probe_mu=-800.0)
    assert zero.reversed_signal().values[0] == 0.0


def test_reversed_signal_pointwise():
    u = PiecewiseSignal([0.0, 0.25, 1.0, 2.0], [1.0 + 0j, 2.0, 3.0])
    r = u.reversed_signal()
    np.testing.assert_allclose(r.breakpoints, [0.0, 1.0, 1.75, 2.0])
    np.testing.assert_allclose(r.values, [3.0, 2.0, 1.0])
    rr = r.reversed_signal()
    np.testing.assert_allclose(rr.breakpoints, u.breakpoints)
    np.testing.assert_allclose(rr.values, u.values)


def test_counterexample_intervals_dyadic():
    gammas = [-(2.0**m) * (1 + 2j) for m in range(6)]
    table = counterexample_intervals(gammas)
    for m, a, b in table:
        assert a == 2.0 ** (-m)
        assert b == 2.0 ** (-m + 1)


def test_counterexample_validation():
    with pytest.raises(SignalError):
        counterexample_intervals([-0.5])  # needs Re gamma_1 <= -1
    with pytest.raises(SignalError):
        counterexample_intervals([-1.0, -1.9])  # decay ratio below 2
    counterexample_intervals([-1.0, -2.0, -4.0])  # exact doubling is fine
    with pytest.raises(SignalError):
        counterexample_intervals([1.0])
    with pytest.raises(SignalError):
        counterexample_intervals([])


def test_counterexample_input_indicators():
    gammas = [-(2.0**m) for m in range(6)]
    u = counterexample_input(gammas)
    assert u.per_mode
    assert u.sup_norm() == 1.0
    table = counterexample_intervals(gammas)
    mids = 0.5 * (u.breakpoints[:-1] + u.breakpoints[1:])
    for m, a, b in table:
        inside = (mids >= a) & (mids < b)
        np.testing.assert_array_equal(u.values[inside, m - 1], 1.0 + 0j)
        np.testing.assert_array_equal(u.values[~inside, m - 1], 0.0 + 0j)
    # at most one channel active per piece, and the leftmost sliver is silent
    assert np.max(np.sum(np.abs(u.values), axis=1)) == 1.0
    assert np.all(u.values[mids < 2.0 ** (-6)] == 0.0)


def _expdiff(lams, edges):
    lams = np.asarray(lams, dtype=complex)[:, None]
    return (np.exp(lams * edges[1:]) - np.exp(lams * edges[:-1])) / lams


def test_worst_case_phases_single_mode():
    edges = np.array([0.0, 1.0])
    E = _expdiff([-1.0], edges)
    u, val = worst_case_phases(E, [1.0], [1.0], breakpoints=edges)
    assert val == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # the objective is phase-invariant, so only |v| = 1 is pinned down
    assert abs(u.values[0]) == pytest.approx(1.0, rel=1e-14)
    _, zero = worst_case_phases(np.zeros((1, 3)), [1.0], [1.0])
    assert zero == 0.0


def test_worst_case_phases_real_field_vs_brute_force():
    lams = np.array([-1.0 + 2.0j, -1.0 - 2.0j])
    edges = np.linspace(0.0, 1.0, 9)
    E = _expdiff(lams, edges)
    w = np.array([0.5, 0.5])
    b = np.array([1.0 + 0.5j, 1.0 - 0.5j])
    M = b[:, None] * E
    brute = 0.0
    for pattern in itertools.product((-1.0, 1.0), repeat=8):
        v = np.array(pattern)
        brute = max(brute, math.sqrt(float(np.sum(w * np.abs(M @ v) ** 2))))
    _, found = worst_case_phases(E, w, b, real_field=True, restarts=32)
    assert found <= brute * (1.0 + 1e-12)
    assert found == pytest.approx(brute, rel=1e-12)
    _, free = worst_case_phases(E, w, b, restarts=32)
    assert free >= found - 1e-12


def test_random_signal_reproducible_and_bounded():
    a = random_signal(np.random.default_rng(42), 3.0, 7, amplitude=0.8)
    b = random_signal(np.random.default_rng(42), 3.0, 7, amplitude=0.8)
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.n_pieces == 7
    assert a.horizon == 3.0
    assert np.max(np.abs(a.values)) <= 0.8
    multi = random_signal(np.random.default_rng(1), 1.0, 4, n_channels=3)
    assert multi.values.shape == (4, 3)
    real = random_signal(np.random.default_rng(2), 1.0, 5, complex_field=False)
    assert np.all(real.values.imag == 0.0)


def test_piecewise_validation():
    with pytest.raises(SignalError):
        PiecewiseSignal([0.0, 1.0, 0.5], [1.0, 2.0])
    with pytest.raises(SignalError):
        PiecewiseSignal([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(SignalError):
        PiecewiseSignal([0.5, 1.0], [1.0])  # must start at the origin
    u = PiecewiseSignal([0.0, 0.5, 1.0], [1.0 + 2j, 3.0])
    with pytest.raises(SignalError):
        u.restrict(1.5)
    with pytest.raises(SignalError):
        u.shift_origin(1.0)
