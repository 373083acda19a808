"""The upper-route table, with its column constants folded into
``_upper_routes``, against the helpers it replaces (``routes_reference.py``)
bit for bit: every route's value and reason, the per-column bounds, and
which error comes first.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.admissibility import AdmissibilityError, InputOperator, _upper_routes
from admlab.spectral import DiagonalGenerator
from routes_reference import upper_routes


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _table(routes_of, A, B, t):
    """The route table as comparable bytes, or the error it raises."""
    try:
        routes, per_column = routes_of(A, B, t)
    except AdmissibilityError as exc:
        return "error", str(exc)
    return ({k: (_bits(v["value"]), v["reason"]) for k, v in routes.items()},
            per_column.tobytes())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    kind=st.sampled_from(["columns", "aminus_x0", "aminus_full"]),
    m=st.integers(1, 3),
    weighted=st.booleans(),
    right_angle=st.booleans(),
    misaligned=st.booleans(),
    t=st.sampled_from([1e-3, 0.5, 4.0, 1e3, math.inf]),
)
def test_the_folded_route_table_is_the_helpers_bit_for_bit(
        seed, n, kind, m, weighted, right_angle, misaligned, t):
    rng = np.random.default_rng(seed)
    lams = -(10.0 ** rng.uniform(-3.0, 3.0, n)) * (1.0 + 1j * rng.uniform(-20.0, 20.0, n))
    if right_angle:  # the sector angle rounds to pi/2: no L2 constant
        lams[rng.integers(n)] = -1e-300 + 1j
    weights = 10.0 ** rng.uniform(-2.0, 2.0, n) if weighted else None
    A = DiagonalGenerator(lams, weights)
    rows = n + 1 if misaligned else n
    if kind == "columns":
        B = InputOperator.columns(rng.normal(size=(rows, m)) + 1j * rng.normal(size=(rows, m)))
    elif kind == "aminus_x0":
        B = InputOperator.aminus_x0(rng.normal(size=rows) / np.arange(1, rows + 1) + 0j)
    else:
        B = InputOperator.aminus_full()
    want = _table(upper_routes, A, B, t)
    assert _table(lambda A, B, t: _upper_routes(A, B).at(t), A, B, t) == want
    if right_angle and not (misaligned and kind != "aminus_full"):
        assert want == ("error", "L2 constant needs sector angle < pi/2")
