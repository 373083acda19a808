"""The Horner kernel with dead modes out of its row loop, against the whole
loop bit for bit, and the semigroup factors against the plain exponential.

The kernel takes one value per mode and piece; an m-channel signal without
columns (layout "outer") runs as one scalar pass per channel, as
``mode_integrals`` runs it.  The reference's whole loop still has the
per-channel layout, and for n >= 2 modes the scalar passes match it bit for
bit.  A one-mode pass does not: numpy rounds a one-element complex product
by its operands' layout, so there the scalar passes are compared with the
reference's own scalar passes.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import signals
from admlab.signals import PiecewiseSignal, _horner, mode_integrals
from admlab.spectral import DiagonalGenerator, _semigroup_factors
from horner_reference import horner

LAYOUTS = ("scalar", "per-mode", "cols", "outer")


def _per_channel(kernel, lams, widths, vals, starts):
    """Each run's sums of an m-channel pass, from one scalar pass per channel
    stacked as the columns of an n×m array."""
    runs = [list(kernel(lams, widths, v, starts=starts)) for v in vals.T]
    return [np.stack(sums, axis=1) for sums in zip(*runs)]


def _passes(lams, widths, vals, per_mode, starts, cols, layout):
    """The kernel's run sums and the reference's, for one random pass."""
    if layout != "outer":
        return (list(_horner(lams, widths, vals, per_mode, starts, cols)),
                list(horner(lams, widths, vals, per_mode, starts, cols)))
    got = _per_channel(_horner, lams, widths, vals, starts)
    if lams.size == 1:
        return got, _per_channel(horner, lams, widths, vals, starts)
    return got, list(horner(lams, widths, vals, False, starts))


def _pass(rng, n, K, layout, dead_share, n_runs, special, scale):
    """A random Horner pass: about ``dead_share`` of the n modes dead at the
    smallest width, the rest live at some or all widths."""
    widths = rng.uniform(0.05, 1.0, K)
    wmin = widths.min()
    n_dead = int(round(dead_share * n))
    rate = np.concatenate([rng.uniform(40.0, 4000.0, n_dead),   # z = -1 at every width
                           rng.uniform(0.0, 36.0, n - n_dead)])  # some widths only
    lams = -rate / wmin + 1j * (rate / wmin) * rng.uniform(-2.0, 2.0, n)
    lams = lams[rng.permutation(n)]
    if special == "real":
        lams = lams.real + 0j
    elif special == "subnormal":  # no 1/λ: the Δ·h(λΔ) weight rule
        lams[0] = -5e-324 + 0j
        lams[-1] = 0j
    m = 3
    shape = {"scalar": (K,), "per-mode": (K, n), "cols": (K, m), "outer": (K, m)}[layout]
    vals = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if special == "zero-rows":
        vals[rng.random(K) < 0.5] = 0.0
    cols = None
    if layout == "cols":
        cols = scale * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    if special == "negative-zero":  # real λ and values -|v| - 0j: products of -0
        lams = lams.real + 0j
        vals.real, vals.imag = -np.abs(vals.real), -0.0
        if cols is not None:
            cols.imag = -0.0
    starts = [0] + sorted(rng.choice(np.arange(1, K), min(n_runs, K) - 1, replace=False).tolist())
    return lams, widths, vals, layout == "per-mode", starts, cols


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    K=st.integers(1, 12),
    layout=st.sampled_from(LAYOUTS),
    dead_share=st.sampled_from([0.0, 0.3, 0.5, 0.55, 0.8, 0.95, 1.0]),
    n_runs=st.integers(1, 4),
    special=st.sampled_from(["none", "real", "zero-rows", "subnormal", "negative-zero"]),
    scale=st.sampled_from([1.0, 1e-300, 1e150, 1e300]),
)
def test_the_split_pass_is_the_whole_loop_bit_for_bit(
    seed, n, K, layout, dead_share, n_runs, special, scale
):
    # scale 1e150 and 1e300 reach the overflow guard (cols and values both
    # scaled), 1e-300 makes the dead products underflow
    rng = np.random.default_rng(seed)
    lams, widths, vals, per_mode, starts, cols = _pass(
        rng, n, K, layout, dead_share, n_runs, special, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _passes(lams, widths, vals, per_mode, starts, cols, layout)
    assert len(got) == len(want) == len(starts)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_dead_modes_leave_the_row_loop(monkeypatch):
    # 6 of 8 modes have e^{λΔ} - 1 == -1 at the smallest width: the row loop
    # sees the 2 live ones, and a 1e300-sized input keeps the whole loop
    seen = []
    rows = signals._horner_rows
    monkeypatch.setattr(signals, "_horner_rows",
                        lambda lams, *a: seen.append(lams.size) or rows(lams, *a))
    lams = np.array([-0.01, -0.02 + 3j] + [-1.0 * k for k in range(1, 7)])
    widths = np.array([50.0, 100.0, 40.0])
    vals = np.array([1.0 + 2j, 0.0, -3.0 + 0.5j])
    for scale, loop in [(1.0, 2), (1e307, 8)]:
        seen.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(_horner(lams, widths, scale * vals, starts=(0, 2)))
            want = list(horner(lams, widths, scale * vals, starts=(0, 2)))
        assert seen == [loop]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_one_dead_mode_alone(layout):
    # a one-mode pass takes numpy's length-1 in-place products, in the loop
    # and in the closed form alike
    rng = np.random.default_rng(7)
    for _ in range(20):
        lams, widths, vals, per_mode, starts, cols = _pass(
            rng, 1, 4, layout, 1.0, 2, "none", 1.0)
        got, want = _passes(lams, widths, vals, per_mode, starts, cols, layout)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_m_channel_mode_integrals_are_the_per_channel_passes(n):
    # mode_integrals stacks one scalar pass per channel into the (n, m) array
    rng = np.random.default_rng(n)
    for _ in range(10):
        lams, widths, vals, _, _, _ = _pass(rng, n, 6, "outer", 0.8, 1, "none", 1.0)
        u = PiecewiseSignal(np.concatenate([[0.0], np.cumsum(widths)]), vals)
        _, (want,) = _passes(lams, np.diff(u.breakpoints), vals, False, [0], None, "outer")
        got = mode_integrals(lams, u)
        assert got.shape == (n, 3) and got.tobytes() == want.tobytes()


def _reference_factors(A, t):
    """The semigroup factors as taken with numpy's exp on every real part."""
    w = A.eigenvalues * t
    with np.errstate(under="ignore"):
        live = np.exp(w.real) != 0.0
        if 2 * int(np.count_nonzero(live)) >= live.size:
            return np.exp(w)
        factors = np.zeros_like(w)
        factors[live] = np.exp(w[live])
    return factors


EDGES = [-708.0, -708.4, -709.8, -740.0, -745.0, -745.1332191019411,
         -745.1332191019412, -745.14, -749.99, -750.0, -750.01, -1e4, -1e300]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    far=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    t=st.sampled_from([1e-3, 0.7, 1.0, 30.0]),
)
def test_semigroup_factors_keep_the_plain_live_set_and_bits(seed, n, far, t):
    # real parts at the underflow edges and on either side of them; a real
    # eigenvalue's factor is e^x itself, so its bits show whether the mode
    # was taken as live (np.exp(w.real) != 0) or as a 0 of the sparse branch
    rng = np.random.default_rng(seed)
    re = np.where(rng.random(n) < far, rng.choice(EDGES, n), -rng.uniform(0.0, 745.0, n))
    re *= np.where(rng.random(n) < 0.2, 1.0 + rng.uniform(-1e-15, 1e-15, n), 1.0)
    im = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-50.0, 50.0, n))
    A = DiagonalGenerator(re / t + 1j * im)
    assert _semigroup_factors(A, t).tobytes() == _reference_factors(A, t).tobytes()


def test_the_live_set_at_the_underflow_edges():
    # with most modes far below -750 the factors take the sparse branch, so
    # the nonzero factors of the real edge modes are exactly the live set
    x = np.array(EDGES)
    for lams in (np.concatenate([x, np.full(20, -1e4)]), x[:4], x[:3]):
        A = DiagonalGenerator(lams)
        got = _semigroup_factors(A, 1.0)
        assert got.tobytes() == _reference_factors(A, 1.0).tobytes()
        with np.errstate(under="ignore"):
            assert np.array_equal(got[:x.size] != 0.0, np.exp(lams.real[:x.size]) != 0.0)
