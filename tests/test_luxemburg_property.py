"""Property test of the Luxemburg norm: homogeneity ||a u|| = |a| ||u||.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.orlicz import (
    SampledFunction,
    Segment,
    YoungFunction,
    luxemburg_norm,
    power_young,
)

# A pure power, the power/constant/power function of the benchmark, and a
# zero plateau before a quadratic.
PHIS = {
    "power": power_young(3.0, 0.5),
    "segments": YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(1.0, "const", 3.0, 0.0),
         Segment(2.0, "power", 1.5, 1.0)]
    ),
    "plateau": YoungFunction(
        [Segment(0.0, "const", 0.0, 0.0), Segment(1.0, "power", 2.0, 1.0)]
    ),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(PHIS)),
    widths=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
    tail=st.one_of(st.none(), st.floats(0.05, 5.0)),
    alpha=st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a])),
)
def test_luxemburg_homogeneity_property(name, widths, seed, tail, alpha):
    phi = PHIS[name]
    values = np.random.default_rng(seed).uniform(0.0, 5.0, size=len(widths))
    values[0] += 0.1  # not the zero profile
    f = SampledFunction(np.concatenate([[0.0], np.cumsum(widths)]), values, tail)
    assert luxemburg_norm(phi, f.scaled(alpha)) == pytest.approx(
        abs(alpha) * luxemburg_norm(phi, f), rel=1e-9
    )
