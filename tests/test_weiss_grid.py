"""The Weiss grid's row skip against the full grid.

``weiss_check`` evaluates the per-mode candidates first and then only the grid
rows whose bound can still beat the best value.  Its value and guard count
must be those of every point (``weiss_oracle.weiss_full_grid``): bit for bit
where each norm is a matrix-vector product or a max, to 1e-15 relative where
the Gram product of m >= 2 columns sums in another order.  Each row bound
must dominate every norm evaluated on its row.  ``test_weiss_property.py``
draws the same comparison over random spectra.
"""

import math

import numpy as np
import pytest

from admlab import certify
from admlab.admissibility import InputOperator
from admlab.certify import CertifyError, weiss_check
from admlab.spectral import DiagonalGenerator
from test_certify import WEISS_LAM
from weiss_oracle import weiss_full_grid

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
    value, skipped = weiss_full_grid(A, B, p)
    assert rep.skipped == skipped
    if kind == "columns2":  # the Gram product sums in another order
        assert rep.value == pytest.approx(value, rel=1e-15, abs=0.0)
    else:
        assert rep.value == value


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PS)
def test_guard_cases_match_the_full_grid(kind, p):
    # a candidate 2e-20 off the spectrum, which the guard drops at p = 2 and
    # p = inf, and a mode at -1e-8 among others
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
    re = np.geomspace(1e-6, 1e6, 25)
    im_half = np.geomspace(1e-6, 1e6, 25)
    im = np.concatenate([-im_half[::-1], [0.0], im_half])
    for n, seed in ((256, 1), (512, 2)):
        A, rng = _bench_system(n, seed)
        B = operator(kind, rng, n)
        bounds = certify._weiss_row_bounds(A, B, p, re)
        norms = certify._resolvent_norms(A, B)
        for r, bound in zip(re, bounds):
            dist = np.abs((r + 1j * im)[:, None] - A.eigenvalues[None, :])
            assert np.max(certify._weiss_factor(p, np.full(len(im), r)) * norms(dist)) <= bound


@pytest.mark.parametrize("p, most", [(2.0, 0), (math.inf, 5)])
def test_ray_grid_rows_are_mostly_skipped(p, most, monkeypatch):
    points = []
    resolvent_norms = certify._resolvent_norms

    def counting(A, B):
        norms = resolvent_norms(A, B)
        return lambda dist: points.append(len(dist)) or norms(dist)

    monkeypatch.setattr(certify, "_resolvent_norms", counting)
    A = DiagonalGenerator.from_ray(1.0, 1.0, math.pi / 4, 512)
    rep = weiss_check(A, InputOperator.aminus_full(), p)
    rows = (sum(points) - rep.n_candidates) // 51  # a row spans 51 points
    assert rows <= most


def test_p_that_is_not_a_number_is_named():
    A = DiagonalGenerator([-1.0])
    for p in ("abc", "nan", 3.0):
        with pytest.raises(CertifyError, match=r"p must be one of \{1, 2, inf\}"):
            weiss_check(A, InputOperator.aminus_full(), p)
