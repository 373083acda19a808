"""Each Weiss route against the old half-plane grid.

``weiss_check`` takes the supremum in closed form for ``aminus_full`` (every
p) and for p = 1, on the imaginary axis for p = oo, and on the grid with its
row skip for p = 2 alone.  ``weiss_oracle.weiss_full_grid`` evaluates every
point of the old grid.  Against it:

* ``aminus_full``: ``value`` is ``closed_form``, at every p;
* p = 1, finite rank: ``value`` is sqrt(lambda_max) of the dense Gram
  sum_n w_n conj(b_n) b_n^T to 1e-14, at least ``closed_form``, and at
  least the old grid value to 1e-15 (that grid rounds too);
* p = oo, finite rank: ``value`` is at least the old grid value, bit for bit
  for one column and to 1e-14 relative for m >= 2 (``eigvalsh`` rounds);
* p = 2: the guard count is that of every grid point, and ``value`` the
  larger of their best and ``closed_form``, to 1e-15 relative (the old grid
  squared distances with ``pow`` and took its points in one pass, where the
  library takes each row in its own product).

Each row bound must dominate every norm evaluated on its row.
``test_weiss_property.py`` draws the same comparison over random spectra.
"""

import math

import numpy as np
import pytest

from admlab import certify
from admlab.admissibility import InputOperator
from admlab.certify import CertifyError, weiss_check
from admlab.spectral import DiagonalGenerator
from test_certify import WEISS_LAM
from weiss_oracle import _resolvent_norms, weiss_full_grid

KINDS = ["aminus_full", "aminus_x0", "columns1", "columns2"]
PS = [1.0, 2.0, math.inf]


def operator(kind, rng, n):
    k = np.arange(1, n + 1)
    if kind == "aminus_full":
        return InputOperator.aminus_full()
    if kind == "aminus_x0":
        return InputOperator.aminus_x0((rng.normal(size=n) + 1j * rng.normal(size=n)) / k)
    m = int(kind[-1])
    return InputOperator.columns(
        (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) / k[:, None]
    )


def _bench_system(n, seed):
    """The bench's sector spectrum, -k (1 + 0.2 u) e^{i theta} with |theta| <=
    0.6, scaled to decay margin 1, with random weights."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, n + 1)
    mag = k * (1.0 + 0.2 * rng.random(n))
    lam = -mag * np.exp(1j * 0.6 * (2.0 * rng.random(n) - 1.0))
    lam /= -np.max(lam.real)
    return DiagonalGenerator(lam, weights=rng.uniform(0.5, 2.0, n)), rng


def assert_matches_full_grid(A, B, p, kind):
    rep = weiss_check(A, B, p)
    if kind == "aminus_full":
        assert (rep.route, rep.n_grid, rep.n_candidates, rep.skipped) == ("closed-form", 0, 0, 0)
        assert rep.value == rep.closed_form
        return
    value, skipped = weiss_full_grid(A, B, p)
    if p == 1.0:
        cols = B._coefficients(A)
        gram = np.einsum("n,ni,nj->ij", A.weights, cols.conj(), cols)
        assert rep.route == "closed-form"
        assert rep.value == pytest.approx(
            math.sqrt(np.linalg.eigvalsh(gram)[-1]), rel=1e-14, abs=0.0)
        # where every |lambda_n| is below about 1e-7, the old candidates at
        # Re l = 1e9 (1 + |lambda|) round Re l / |l - lambda_n| to 1, and the old
        # value is the same sum rounded another way, up to a few ulps above it
        assert rep.value >= rep.closed_form and rep.value >= value * (1.0 - 1e-15)
    elif math.isinf(p):
        assert rep.route == "axis"
        assert rep.value >= (value if kind != "columns2" else value * (1.0 - 1e-14))
    else:
        assert rep.route == "plane"
        assert rep.skipped == skipped
        assert rep.value == pytest.approx(max(value, rep.closed_form), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PS)
def test_guard_cases_match_the_full_grid(kind, p):
    # a candidate 2e-20 off the spectrum, which the guard drops at p = 2 (the
    # axis keeps i, 1e-20 off it, where the old grid dropped 1e-29 + i), and a
    # mode at -1e-8 among others
    rng = np.random.default_rng(3)
    for lam in (WEISS_LAM, np.array([-1e-8, -1.0 + 2j, -3.0 - 1j, -40.0 + 5j, -0.3])):
        A = DiagonalGenerator(lam)
        assert_matches_full_grid(A, operator(kind, rng, len(lam)), p, kind)


@pytest.mark.parametrize("p", PS)
def test_a_row_the_guard_reaches_is_evaluated(p):
    # -1e-20 + 1e6 i lies within the guard's reach of the grid point
    # 1e-6 + 1e6 i but carries no input, so the row bound alone would leave
    # that row out and lose the point from ``skipped``; 64 modes put the row
    # in another block than the candidates
    A = DiagonalGenerator(np.concatenate([[-1e-20 + 1e6j], -np.arange(1.0, 64.0)]))
    B = InputOperator.aminus_x0(np.eye(64)[1])
    assert weiss_full_grid(A, B, p)[1] >= 1
    assert_matches_full_grid(A, B, p, "aminus_x0")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PS)
def test_row_bound_dominates_every_norm_on_its_row(kind, p):
    re = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 25)])  # the axis, then the plane
    im_half = np.geomspace(1e-6, 1e6, 25)
    im = np.concatenate([-im_half[::-1], [0.0], im_half])
    for n, seed in ((256, 1), (512, 2)):
        A, rng = _bench_system(n, seed)
        B = operator(kind, rng, n)
        mag = certify._mode_magnitudes(A, B)
        bounds = certify._weiss_row_bounds(A, mag, p, re)
        # the diagonal form's norms max_n |lambda_n| / |mu - lambda_n| come
        # from the old code: the library takes that supremum in closed form
        if kind == "aminus_full":
            norms = _resolvent_norms(A, B)
        else:
            norms = certify._resolvent_norms(A, B, mag)
        for r, bound in zip(re, bounds):
            dist = np.abs((r + 1j * im)[:, None] - A.eigenvalues[None, :])
            assert np.max(certify._weiss_factor(p, np.full(len(im), r)) * norms(dist)) <= bound


@pytest.mark.parametrize("p, most", [(2.0, 0), (math.inf, 5)])
def test_ray_grid_rows_are_mostly_skipped(p, most, monkeypatch):
    points = []
    resolvent_norms = certify._resolvent_norms

    def counting(A, B, mag):
        norms = resolvent_norms(A, B, mag)
        return lambda dist: points.append(len(dist)) or norms(dist)

    monkeypatch.setattr(certify, "_resolvent_norms", counting)
    # a rank-one input decaying like |lambda_n|^-2: the candidates come within
    # 1e-9 of every row bound of the plane; the axis (p = oo) is one row
    A = DiagonalGenerator.from_ray(1.0, 1.0, math.pi / 4, 512)
    rep = weiss_check(A, InputOperator.aminus_x0(np.arange(1.0, 513.0) ** -3), p)
    rows = (sum(points) - rep.n_candidates) // 51  # a row spans 51 points
    assert rows <= most


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_one_call_takes_the_mode_magnitudes_once(p, monkeypatch):
    # the closed form, the row bounds and the resolvent norms share one array
    calls = []
    mode_magnitudes = certify._mode_magnitudes
    monkeypatch.setattr(certify, "_mode_magnitudes",
                        lambda A, B: calls.append(1) or mode_magnitudes(A, B))
    A, rng = _bench_system(64, 5)
    assert weiss_check(A, operator("columns2", rng, 64), p).route in ("axis", "plane")
    assert len(calls) == 1


def test_p_that_is_not_a_number_is_named():
    A = DiagonalGenerator([-1.0])
    for p in ("abc", "nan", 3.0):
        with pytest.raises(CertifyError, match=r"p must be one of \{1, 2, inf\}"):
            weiss_check(A, InputOperator.aminus_full(), p)


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_value_is_at_least_the_closed_form_where_the_guard_skips_a_peak(p):
    # the mode -1e-155 + i peaks within the guard's reach of both of its
    # points, i on the axis and 1e-155 + i on the plane, so the points
    # evaluated read about 1, far below that mode's own supremum
    A = DiagonalGenerator([-1e-155 + 1j, -1.0])
    rep = weiss_check(A, InputOperator.columns([[1e-10], [1.0]]), p)
    assert rep.skipped >= 1
    assert rep.closed_form > 1e60
    assert rep.value == rep.closed_form
