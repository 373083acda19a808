"""Piecewise inputs, closed-form mode integrals, and worst-case phase search."""

import itertools
import math

import numpy as np
import pytest

from admlab.signals import (
    PiecewiseSignal,
    SignalError,
    counterexample_input,
    counterexample_intervals,
    mode_integrals,
    random_signal,
    worst_case_phases,
)

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
