"""Public surface: exports resolve, constructors never freeze the caller's arrays."""

import importlib

import numpy as np
import pytest

from admlab.admissibility import InputOperator
from admlab.orlicz import SampledFunction
from admlab.signals import PiecewiseSignal
from admlab.spectral import DiagonalGenerator, SpectralVector

MODULES = ("_quad", "admissibility", "certify", "cli", "orlicz", "signals", "spectral")


@pytest.mark.parametrize("module", MODULES)
def test_every_export_exists(module):
    mod = importlib.import_module(f"admlab.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"admlab.{module}.__all__ names missing {name!r}"


# (label, caller's array, constructor, the object's copy of that array)
CASES = [
    ("SampledFunction edges", np.array([0.0, 1.0, 2.0]),
     lambda a: SampledFunction(a, [1.0, 2.0]), lambda f: f.edges),
    ("PiecewiseSignal breakpoints", np.array([0.0, 0.5, 1.0]),
     lambda a: PiecewiseSignal(a, [1.0, 2.0]), lambda u: u.breakpoints),
    ("PiecewiseSignal values", np.array([1.0 + 1j, 2.0]),
     lambda a: PiecewiseSignal([0.0, 0.5, 1.0], a), lambda u: u.values),
    ("DiagonalGenerator eigenvalues", np.array([-1.0 + 0j, -2.0 + 1j]),
     lambda a: DiagonalGenerator(a), lambda A: A.eigenvalues),
    ("DiagonalGenerator weights", np.array([1.0, 3.0]),
     lambda a: DiagonalGenerator([-1.0, -2.0], a), lambda A: A.weights),
    ("SpectralVector coefficients", np.array([1.0 + 0j, 2.0]),
     lambda a: SpectralVector(a), lambda x: x.coefficients),
    ("InputOperator matrix", np.array([[1.0 + 0j, 0.5], [2.0, 1.0]]),
     lambda a: InputOperator.columns(a), lambda B: B.data),
    ("InputOperator x0", np.array([1.0 + 0j, 0.5]),
     lambda a: InputOperator.aminus_x0(a), lambda B: B.data),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_constructor_leaves_the_callers_array_writable(case):
    _, arr, build, held = case
    obj = build(arr)
    before = held(obj).copy()
    assert arr.flags.writeable
    arr[0] = 7.0  # a write the object must not see
    np.testing.assert_array_equal(held(obj), before)
    assert not held(obj).flags.writeable


def test_a_read_only_view_of_writable_memory_is_copied():
    base = np.array([0.0, 1.0, 2.0])
    view = base[:]
    view.setflags(write=False)
    f = SampledFunction(view, [1.0, 2.0])
    base[0] = 0.5
    assert f.edges[0] == 0.0
