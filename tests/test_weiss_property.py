"""Property test of each Weiss route against the old full grid: the closed
forms for ``aminus_full`` and p = 1, the axis for p = oo and the plane with
its row skip for p = 2 (``test_weiss_grid.assert_matches_full_grid``).

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.spectral import DiagonalGenerator
from test_weiss_grid import KINDS, PS, assert_matches_full_grid, operator


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
    p=st.sampled_from(PS),
    n=st.integers(1, 80),
    lo=st.floats(-9.0, 2.0),
    span=st.floats(0.0, 12.0),
    slope=st.sampled_from([0.0, 0.5, 30.0]),
    last=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_value_and_skipped_match_the_full_grid(kind, p, n, lo, span, slope, last, seed):
    # |Re lambda| log-uniform over `span` decades from 10**lo and Im up to
    # `slope` times |Re lambda|; the mode `last` places from the end gets the
    # smallest |Re lambda|, so the largest norm can sit at any offset among
    # the candidates, where a matrix-vector product's kernel path differs
    rng = np.random.default_rng(seed)
    re = -(10.0 ** (lo + span * rng.random(n)))
    re[n - 1 - last % n] = -(10.0 ** (lo - 1.0))
    lam = re + 1j * slope * rng.normal(size=n) * np.abs(re)
    A = DiagonalGenerator(lam, weights=rng.uniform(0.5, 2.0, n))
    assert_matches_full_grid(A, operator(kind, rng, n), p, kind)
