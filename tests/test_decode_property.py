"""Property test of the scenario number decoder: ``spectral._decode`` gives
every entry the bits of ``complex(float(re), float(im))`` (``float(w)`` for
weights), for plain numbers, [re, im] pairs and the two mixed in any order.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.spectral import _decode

NAN, INF = float("nan"), float("inf")
FITS = 2**1024 - 2**970 - 1  # the largest integer that converts to a float
NUMBERS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 0, 5e-324]),
    st.integers(2**53 - 4, 2**53 + 4).flatmap(lambda k: st.sampled_from([k, -k])),
    st.integers(-3, 3),
    st.integers(-FITS, FITS),
)
CNUMS = st.one_of(NUMBERS, st.tuples(NUMBERS, NUMBERS).map(list))


def _entry(v) -> complex:
    if type(v) is list:
        return complex(float(v[0]), float(v[1]))
    return complex(float(v), 0.0)


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arr=st.lists(CNUMS, min_size=1, max_size=12))
def test_cvec_decodes_bit_for_bit(arr):
    got = _decode(arr, "x0")
    assert got.dtype == complex and got.shape == (len(arr),)
    assert _bits(got) == _bits(np.array([_entry(v) for v in arr], dtype=complex))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(CNUMS, min_size=width, max_size=width),
                               min_size=1, max_size=5)
    )
)
def test_matrix_decodes_bit_for_bit(rows):
    got = _decode(rows, "matrix", "matrix")
    want = np.array([[_entry(v) for v in row] for row in rows], dtype=complex)
    assert got.shape == want.shape and _bits(got) == _bits(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arr=st.lists(st.one_of(st.floats(min_value=0.0, exclude_min=True),
                              st.integers(1, FITS), st.just(NAN)),
                    min_size=1, max_size=12))
def test_weights_decode_bit_for_bit(arr):
    got = _decode(arr, "weights", "weights")
    assert _bits(got) == _bits(np.array([float(w) for w in arr], dtype=float))


def test_the_goldens_mixed_form_and_a_decoded_array():
    arr = json.loads("[[1.0, 0.5], -0.75, [0.0, 2.0], -0, -0.0, NaN]")
    got = _decode(arr, "x0")
    assert _bits(got) == _bits(np.array([_entry(v) for v in arr], dtype=complex))
    assert _decode(got, "x0") is got
