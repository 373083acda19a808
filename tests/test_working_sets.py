"""Bounded working sets: the Weiss grid, the phase-search Grams, the iISS
kernel envelope, the divergence partial sums and the CSV writer evaluate
their points-by-modes (or rows) intermediates in fixed blocks.

Each call's tracemalloc peak stays under a fixed cap at sizes where one
whole-matrix intermediate would exceed it many times over, and each blocked
result matches a one-block reference at sizes that span at least three blocks.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from admlab import admissibility, certify
from admlab.admissibility import InputOperator, linfty_bounds, orlicz_adm_bound
from admlab.certify import counterexample_run, weiss_check
from admlab.cli import emit_plotdata
from admlab.orlicz import power_young
from admlab.spectral import DiagonalGenerator
from dense_lower import expdiff_matrix, worst_case_phases

CAP_MB = 8.0


def _system(n, seed=7):
    """A spectrum of the bench's shape, an x0 and three columns."""
    rng = np.random.default_rng(seed)
    re = -np.sort(rng.uniform(0.5, 40.0, n))
    A = DiagonalGenerator(re + 1j * rng.uniform(-1.0, 1.0, n) * np.abs(re))
    k = np.arange(1, n + 1)
    x0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) / k**1.5
    cols = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) / k[:, None]
    return A, x0, cols


def _operator(kind, x0, cols):
    if kind == "full":
        return InputOperator.aminus_full()
    if kind == "x0":
        return InputOperator.aminus_x0(x0)
    return InputOperator.columns(cols[:, : int(kind[-1])])


def _peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _capped_call(case, tmp_path):
    if case.startswith("weiss"):
        A, x0, cols = _system(4096)
        B = _operator(case.split("-")[1], x0, cols)
        return lambda: weiss_check(A, B, math.inf)
    if case == "linfty-columns3":
        A, _, cols = _system(8192)
        B = InputOperator.columns(cols)
        return lambda: linfty_bounds(A, B, 1.0 / A.delta)
    if case == "orlicz-adm":
        A, x0, _ = _system(4096)
        return lambda: orlicz_adm_bound(A, x0, power_young(2.0), n_verify=0)
    n = 10**5  # two columns keep the traced run short; a whole-table join takes 14 MB
    table = [np.arange(1, n + 1), np.cumsum(np.random.default_rng(3).random(n))]
    return lambda: emit_plotdata(tmp_path, [("rows.csv", "M,S_M", table)])


CAPPED = [
    "weiss-full", "weiss-x0", "weiss-columns2", "linfty-columns3", "orlicz-adm", "csv"
]


@pytest.mark.parametrize("case", CAPPED)
def test_working_set_stays_under_a_fixed_cap(case, tmp_path):
    call = _capped_call(case, tmp_path)
    assert _peak_mb(call) < CAP_MB


@pytest.mark.parametrize(
    "kind, p", [("full", math.inf), ("x0", 2.0), ("columns2", math.inf), ("columns2", 2.0)]
)
def test_weiss_blocks_match_one_block(kind, p, monkeypatch):
    # 64 points a block: 36 blocks on the plane (p = 2), 17 on the axis
    # (p = oo); the diagonal form takes no points at all (its closed form)
    A, x0, cols = _system(1024)
    B = _operator(kind, x0, cols)
    blocked = weiss_check(A, B, p)
    monkeypatch.setattr(certify, "_GRID_ENTRIES", 1 << 40)
    whole = weiss_check(A, B, p)
    assert blocked.skipped == whole.skipped == 0
    if kind == "columns2":  # the Gram product sums in another order
        assert blocked.value == pytest.approx(whole.value, rel=1e-15, abs=0.0)
    else:
        assert blocked.value == whole.value


def test_counterexample_at_ten_million_modes_is_bounded():
    # whole length-M arrays of the partial sums would take 80 MB each
    t0 = time.perf_counter()
    peak = _peak_mb(lambda: counterexample_run(0.5, 10**7))
    assert peak < CAP_MB
    assert time.perf_counter() - t0 < 1.0


def test_partial_sum_blocks_match_one_cumsum(monkeypatch):
    monkeypatch.setattr(certify, "_GRID_ENTRIES", 7)  # 15 blocks, every m kept
    run = counterexample_run(0.5, 100)
    assert np.array_equal(run["rows"]["m"], np.arange(1, 101))
    assert np.array_equal(run["rows"]["S_m"], np.cumsum(np.full(100, run["sigma"])))


def test_envelope_blocks_match_the_whole_product():
    A, x0, _ = _system(512)  # 128 edges a block: 16 blocks
    c = A.weights * np.abs(A.eigenvalues * x0) ** 2
    rates = -A.eigenvalues.real
    g = admissibility._sampled_envelope(c, rates, 2048)
    with np.errstate(under="ignore"):
        whole = np.exp(-np.multiply.outer(g.edges[:-1], rates)) @ c
    assert np.array_equal(g.values, whole)


def test_gram_blocks_match_the_phase_search_on_the_whole_matrix():
    A, _, cols = _system(1024)  # 256 modes a block for 16 pieces: 4 blocks
    t = 1.0 / A.delta
    rep = linfty_bounds(A, InputOperator.columns(cols), t, seed=5)
    E = expdiff_matrix(A.eigenvalues, np.linspace(0.0, t, 17))
    for j, low in enumerate(rep.per_column["lower"]):
        _, whole = worst_case_phases(E, A.weights, cols[:, j], seed=5 + j)
        assert low == pytest.approx(whole, rel=1e-15, abs=0.0)
