"""The L2 supremum's pivoted-Cholesky bracket against the dense Gram.

Property test: on random spectra (sectors up to near-vertical), decaying and
flat coefficients with some zeros, and an all-zero column, the per-column
brackets of ``infinite_time_sup(..., "L2")`` hold the dense ``eigvalsh`` of
each column's Gram, and the top Ritz vector of the factor attains the lower
end.  Scale test: 16 384 modes in well under a second, with no n x n array.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.admissibility import (
    InputOperator,
    _gram_bracket,
    _pivoted_cholesky,
    infinite_time_sup,
)
from admlab.spectral import DiagonalGenerator


def _dense_gram(lam, b):
    return np.outer(b, np.conj(b)) * (-1.0 / (lam[:, None] + np.conj(lam)[None, :]))


def _system(seed, n, kind, m, angle, flat, zeros, zero_column, bench):
    rng = np.random.default_rng(seed)
    k = np.arange(1, n + 1)
    if bench:  # the benchmark's spectra: lambda_k ~ -k e^{i theta_k}, |theta_k| <= 0.3
        angle, flat = 0.3, False
    lam = -k * (1.0 + 0.2 * rng.random(n)) * np.exp(1j * angle * (2.0 * rng.random(n) - 1.0))
    weights = rng.uniform(0.5, 2.0, n)
    shape = (n, m) if kind == "columns" else (n,)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if not flat:
        coef = coef / (k[:, None] if kind == "columns" else k**1.5)
    coef[rng.random(n) < zeros] = 0.0
    if zero_column:
        if kind == "columns":
            coef[:, 0] = 0.0
        else:
            coef[:] = 0.0
    B = InputOperator.columns(coef) if kind == "columns" else InputOperator.aminus_x0(coef)
    return DiagonalGenerator(lam, weights), B


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 48),
    kind=st.sampled_from(["columns", "aminus_x0"]),
    m=st.integers(1, 3),
    angle=st.floats(0.0, 0.5 * math.pi - 1e-3),
    flat=st.booleans(),
    zeros=st.sampled_from([0.0, 0.2]),
    zero_column=st.booleans(),
    bench=st.booleans(),
)
def test_the_bracket_holds_the_dense_gram(
    seed, n, kind, m, angle, flat, zeros, zero_column, bench
):
    A, B = _system(seed, n, kind, m, angle, flat, zeros, zero_column, bench)
    rep = infinite_time_sup(A, B, "L2")
    assert rep.route == "gram-cholesky"
    assert 0.0 <= rep.lower <= rep.upper
    lam = A.eigenvalues
    cols = np.sqrt(A.weights)[:, None] * B._coefficients(A)
    lows, ups = rep.per_column["lower"], rep.per_column["upper"]
    assert len(lows) == cols.shape[1]
    for j, b in enumerate(cols.T):
        gram = _dense_gram(lam, b)
        dense = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
        assert lows[j] <= dense <= ups[j], (j, lows[j], dense, ups[j])
        if not np.any(b):
            assert lows[j] == ups[j] == 0.0
            continue
        lower, _ = _gram_bracket(lam, b)
        rows, _ = _pivoted_cholesky(lam, b)
        _, vecs = np.linalg.eigh(np.conj(rows) @ rows.T)
        y = rows.T @ vecs[:, -1]  # the top Ritz vector L v
        quotient = float(np.real(np.conj(y) @ gram @ y)) / float(np.real(np.vdot(y, y)))
        assert quotient >= lower
        if bench:
            assert ups[j] - lows[j] <= 1e-12 * ups[j]
    if bench and rep.upper > 0.0:
        assert rep.upper - rep.lower <= 1e-12 * rep.upper


@pytest.mark.parametrize("m", [1, 2])
def test_sixteen_thousand_modes_in_bounded_time_and_memory(m):
    # a dense Gram would be 16384^2 complex entries, 4 GiB
    n = 16_384
    rng = np.random.default_rng(m)
    k = np.arange(1, n + 1)
    lam = -k * (1.0 + 0.2 * rng.random(n)) * np.exp(0.3j * (2.0 * rng.random(n) - 1.0))
    A = DiagonalGenerator(lam)
    coef = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    B = InputOperator.columns(coef / k[:, None])
    tracemalloc.start()
    try:
        rep = infinite_time_sup(A, B, "L2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = []
    for _ in range(2):  # the faster of two untraced calls, as a shared machine stalls
        start = time.perf_counter()
        infinite_time_sup(A, B, "L2")
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 1.0, elapsed  # about 0.1 s on one core
    assert peak < 64 * 2**20, peak  # about 26 MB
    assert 0.0 < rep.lower <= rep.upper <= rep.lower * (1.0 + 1e-11)
