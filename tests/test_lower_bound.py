"""The L∞ lower bound's fast paths against their plain references.

The phase-search Grams built from powers on the uniform grid against the
dense M* diag(w) M, 40-digit mpmath and the form that takes every exp; the
phase search over a block of restarts against one restart at a time, and
over a stack of Grams against one Gram at a time; the chain bound's ``searchsorted``
jumps against the greedy loop over every mode.  The references live in
``dense_lower.py``.  Needs ``hypothesis`` (the ``test`` extra); the module
is skipped without it.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admlab import signals
from admlab.admissibility import InputOperator, _chain_lower, input_map, linfty_bounds
from admlab.signals import PiecewiseSignal, _grid_grams, _phase_search
from admlab.spectral import DiagonalGenerator, space_norm
from dense_lower import (
    chain_lower_loop,
    dense_grams,
    expdiff_matrix,
    phase_search_loop,
    worst_case_phases,
)


def _spectrum(rng, n):
    """Decay rates from 1e-2 to 1e4, so that at the horizons below some
    |Re λ|·t pass 745 and their powers underflow; phases to 60 degrees."""
    re = -(10.0 ** rng.uniform(-2.0, 4.0, n))
    return re + 1j * np.abs(re) * rng.uniform(-1.7, 1.7, n)


def _columns(rng, n, m):
    z = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return z / np.arange(1, n + 1)[:, None]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    K=st.sampled_from([1, 2, 16, 64]),
    m=st.integers(1, 3),
    t=st.floats(0.05, 20.0),
)
def test_grid_grams_match_the_dense_gram(seed, n, K, m, t):
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    w = rng.uniform(0.5, 2.0, n)
    cols = _columns(rng, n, m)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        G = _grid_grams(lams, w, cols, t, K)
    assert G.shape == (m, K, K)
    assert np.isfinite(G).all()
    assert np.array_equal(G, G.conj().transpose(0, 2, 1))  # exactly Hermitian
    dense = dense_grams(lams, w, cols, np.linspace(0.0, t, K + 1))
    for got, want in zip(G, dense):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    K=st.sampled_from([1, 8, 16]),
    m=st.integers(1, 3),
    t=st.floats(0.05, 20.0),
)
def test_grid_grams_equal_the_exp_everywhere_form(seed, n, K, m, t):
    # modes with Re λΔ < -110 take no exp: their powers k >= 1 flush to +0
    # either way, so the Grams are the same bytes as with every exp taken
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    w = rng.uniform(0.5, 2.0, n)
    cols = _columns(rng, n, m)
    G = _grid_grams(lams, w, cols, t, K)
    with mock.patch.object(signals, "_DEAD_RATE", math.inf):
        every = _grid_grams(lams, w, cols, t, K)
    assert G.tobytes() == every.tobytes()


def test_grid_gram_entry_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    lams = [-1.0 + 2.0j, -3.0 - 0.5j, -0.2 + 5.0j, -900.0 + 40.0j]
    w = [1.0, 0.5, 2.0, 1.5]
    b = [1.0 + 0.5j, -0.3 + 0.2j, 0.7j, 2.0]
    t, K = 1.3, 5
    G = _grid_grams(np.array(lams), np.array(w), np.array(b)[:, None], t, K)[0]
    dt = mp.mpf(t) / K

    def piece(lam, k):  # ∫ over [k Δ, (k+1) Δ] of e^{λ s} ds
        lam = mp.mpc(lam)
        return (mp.exp(lam * (k + 1) * dt) - mp.exp(lam * k * dt)) / lam

    for k, l in [(0, 0), (1, 3), (0, 4), (4, 4)]:
        exact = sum(
            wn * abs(mp.mpc(bn)) ** 2 * mp.conj(piece(lam, k)) * piece(lam, l)
            for lam, wn, bn in zip(lams, w, b)
        )
        assert abs(complex(exact) - G[k, l]) <= 1e-14 * abs(complex(exact))


def test_one_linfty_call_takes_two_kernel_entries_per_mode(monkeypatch):
    # ρ_n = e^{λ_nΔ} and e_n = Δ h(λ_nΔ) once per mode, not once per mode and piece
    n = 4096
    rng = np.random.default_rng(5)
    re = -np.sort(rng.uniform(0.5, 40.0, n))
    A = DiagonalGenerator(re + 1j * rng.uniform(-1.0, 1.0, n) * np.abs(re))
    entries = []
    for name in ("_expm1", "_h"):
        inner = getattr(signals, name)

        def counting(w, *rest, inner=inner):
            entries.append(np.size(w))
            return inner(w, *rest)

        monkeypatch.setattr(signals, name, counting)
    linfty_bounds(A, InputOperator.columns(_columns(rng, n, 3)), 1.0 / A.delta)
    assert 0 < sum(entries) <= 2 * n


def _gram(rng, K):
    lams = _spectrum(rng, K + 3)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, K))])
    edges = np.unique(edges)
    E = expdiff_matrix(lams, edges)
    M = _columns(rng, len(lams), 1) * E
    return M.conj().T @ M


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 12),
    restarts=st.sampled_from([1, 2, 8]),
    iters=st.sampled_from([1, 3, 200]),
    real_field=st.booleans(),
)
def test_batched_phase_search_matches_one_restart_at_a_time(
        seed, K, restarts, iters, real_field):
    G = _gram(np.random.default_rng(seed), K)
    (v,), (val,) = _phase_search(G[None], real_field, restarts, iters, [seed])
    v_ref, val_ref, finals = phase_search_loop(G, real_field, restarts, iters, seed)
    assert val == pytest.approx(val_ref, rel=1e-15, abs=0.0)
    # The same winning restart, so the same iterate up to the last step: a
    # final step that gains about one rounding is taken or not by rounding,
    # and near a maximum it moves v by about the square root of its gain.
    # Restarts that end within rounding of the best (often one fixed point up
    # to a global phase) tie, and rounding picks among them.
    tied = [u for u, value in finals if value >= val_ref * (1.0 - 1e-13)]
    assert any(np.allclose(v, u, rtol=0.0, atol=1e-6) for u in tied)
    if len(tied) == 1:
        np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    S=st.integers(1, 12),
    K=st.integers(1, 12),
    restarts=st.sampled_from([1, 2, 8]),
    iters=st.sampled_from([1, 3, 200]),
    real_field=st.booleans(),
)
def test_stacked_phase_search_matches_one_gram_at_a_time(
        seed, S, K, restarts, iters, real_field):
    # S Grams searched as one stack against each searched alone, with its
    # own seed: the same value and the same winning restart, whose iterate
    # the tie rule of the one-restart-at-a-time reference also accepts
    rng = np.random.default_rng(seed)
    Gs = np.array([_gram(rng, K) for _ in range(S)])
    seeds = [seed + s for s in range(S)]
    V, vals = _phase_search(Gs, real_field, restarts, iters, seeds)
    assert V.shape == (S, K) and vals.shape == (S,)
    for s in range(S):
        (v,), (val,) = _phase_search(Gs[s : s + 1], real_field, restarts, iters, seeds[s : s + 1])
        assert vals[s] == pytest.approx(val, rel=1e-15, abs=0.0)
        np.testing.assert_array_equal(V[s], v)
        _, val_ref, finals = phase_search_loop(Gs[s], real_field, restarts, iters, seeds[s])
        tied = [u for u, value in finals if value >= val_ref * (1.0 - 1e-13)]
        assert any(np.allclose(v, u, rtol=0.0, atol=1e-6) for u in tied)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    K=st.integers(1, 16),
    real_field=st.booleans(),
)
def test_worst_case_phases_witness_is_achievable(seed, n, K, real_field):
    rng = np.random.default_rng(seed)
    lams = _spectrum(rng, n)
    edges = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, K))]))
    E = expdiff_matrix(lams, edges)
    w = rng.uniform(0.5, 2.0, n)
    b = _columns(rng, n, 1)[:, 0]
    u, val = worst_case_phases(E, w, b, breakpoints=edges, real_field=real_field)
    assert np.allclose(np.abs(u.values), 1.0, rtol=0.0, atol=1e-15)
    state = b * (E @ u.values)
    achieved = math.sqrt(float(w @ np.abs(state) ** 2))
    assert achieved == pytest.approx(val, rel=1e-13, abs=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    K=st.integers(1, 16),
    m=st.integers(0, 3),
    t=st.floats(0.05, 20.0),
)
def test_linfty_lower_bound_is_reached_by_its_witness(seed, n, K, m, t):
    # m = 0 is the rank-one form A_{-1} x0, else m columns.  The best
    # column's phases, rebuilt at linfty_bounds' seed (seed 0 + column),
    # drive that column alone on the uniform grid of K pieces
    rng = np.random.default_rng(seed)
    A = DiagonalGenerator(_spectrum(rng, n), weights=rng.uniform(0.5, 2.0, n))
    if m == 0:
        B = InputOperator.aminus_x0(_columns(rng, n, 1)[:, 0])
    else:
        B = InputOperator.columns(_columns(rng, n, m))
    rep = linfty_bounds(A, B, t, n_pieces=K)
    j = int(np.argmax(rep.per_column["lower"]))
    grams = _grid_grams(A.eigenvalues, A.weights, B._coefficients(A), t, K)
    (v,), (value,) = _phase_search(grams[j : j + 1], False, 8, 200, [j])
    assert value == rep.lower
    assert np.allclose(np.abs(v), 1.0, rtol=0.0, atol=1e-15)
    values = v if m == 0 else v[:, None] * np.eye(m)[j]
    u = PiecewiseSignal(np.linspace(0.0, t, K + 1), values)
    achieved = space_norm(A, input_map(A, B, u, t))
    assert achieved == pytest.approx(rep.lower, rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    levels=st.integers(1, 8),
    at_one_over_t=st.booleans(),
)
@example(seed=0, n=1, levels=1, at_one_over_t=True)
def test_chain_lower_equals_the_greedy_loop_bit_for_bit(seed, n, levels, at_one_over_t):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.01, 3.0))
    # few distinct |Re λ|, among them exact doublings: many ties, each tie
    # with its own imaginary part, so a different pick changes the sum
    rates = 2.0 ** rng.integers(-3, 12, levels) * rng.choice([1.0, 1.5], levels)
    r = rng.choice(rates, n)
    if at_one_over_t:
        r[rng.integers(n)] = 1.0 / t
    A = DiagonalGenerator(-r + 1j * rng.normal(size=n) * r)
    got = _chain_lower(A, t)
    want = chain_lower_loop(A.eigenvalues, t)
    assert got.hex() == want.hex()


def test_exact_ties_go_to_the_first_restart():
    # every sign vector v gives v* I v = K exactly, so all eight restarts tie
    G = np.eye(5, dtype=complex)
    (v,), (val,) = _phase_search(G[None], True, 8, 200, [3])
    v_ref, val_ref, _ = phase_search_loop(G, True, 8, 200, 3)
    assert val == val_ref == math.sqrt(5.0)
    assert np.array_equal(v, np.ones(5)) and np.array_equal(v_ref, v)
