"""Property test of the shift demo's power-profile modular against mpmath.

Needs ``hypothesis`` and ``mpmath`` (the ``test`` extra); the module is
skipped without them.
"""

import math

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from admlab.certify import shift_demo
from admlab.orlicz import Segment, YoungFunction
from shift_oracle import levels_mp, modular_mp

# The benchmark's pure power 0.5 x^3 and power/constant/power function, and
# x^4, whose tail diverges for exponents a <= -1/4.
SEGMENTS = {
    "power": [(0.0, "power", 1.5, 2.0)],
    "segments": [(0.0, "power", 2.0, 1.0), (1.0, "const", 3.0, 0.0),
                 (2.0, "power", 1.5, 1.0)],
    "quartic": [(0.0, "power", 4.0, 3.0)],
}
PHIS = {name: YoungFunction([Segment(*s) for s in segs]) for name, segs in SEGMENTS.items()}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SEGMENTS)),
    c=st.floats(0.3, 1.5),
    # |a| log-uniform from about 1e-5 up to 0.3 (a < 0) or 0.6 (a > 0)
    a=st.tuples(st.sampled_from([-0.3, 0.6]), st.floats(-4.5, 0.0)).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
)
@example(name="quartic", c=0.7, a=-0.28)  # a divergent tail
def test_power_profile_modular_matches_mpmath(name, c, a):
    segs = SEGMENTS[name]
    out = shift_demo({"kind": "power", "coeff": c, "exponent": a}, PHIS[name])
    assert out["levels_scanned"] == levels_mp(segs, c, a)
    # the tail lies in the last segment for a < 0 and in the first for a > 0
    r_tail = segs[-1][3] if a < 0.0 else segs[0][3]
    if a * (r_tail + 1.0) + 1.0 <= 0.0:
        assert out["diverged"] and out["modular"] == math.inf
        assert out["escalation_levels"] > out["levels_scanned"]
        return
    assert not out["diverged"] and out["escalation_levels"] is None
    assert out["modular"] == pytest.approx(modular_mp(segs, c, a), rel=1e-10)
