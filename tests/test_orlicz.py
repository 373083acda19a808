"""Young functions, Luxemburg norms, conjugation, Hölder, dVP construction.

Oracle policy: every nontrivial number asserted here is either (a) a hand
derivation written in the comment next to it, (b) an independently coded
brute-force evaluation (refined grid search for conjugates, Riemann sums for
tail integrals), or (c) a classical closed form (p-norms).  Tolerances match
the arithmetic, not wishful thinking.
"""

import math

import numpy as np
import pytest

from admlab import orlicz
from admlab.orlicz import (
    BracketError,
    OrliczError,
    SampledFunction,
    Segment,
    YoungFunction,
    complementary,
    compose_sqrt,
    dvp_construct,
    holder_bound,
    luxemburg_norm,
    modular,
    power_young,
    young_from_json,
)


def _staircase(rng, max_pieces=10, tail=False):
    k = int(rng.integers(1, max_pieces + 1))
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.5, size=k))])
    values = rng.uniform(0.0, 3.0, size=k)
    rate = float(rng.uniform(0.3, 2.0)) if tail else None
    return SampledFunction(edges, values, rate)


def _p_norm(f: SampledFunction, p: float) -> float:
    total = float(np.sum(f.values**p * np.diff(f.edges)))
    if f.tail_rate is not None:
        total += float(f.values[-1]) ** p / (p * f.tail_rate)
    return total ** (1.0 / p)


def _brute_conjugate(phi: YoungFunction, y: float) -> float:
    """sup_x (x*y - Phi(x)) by coarse log scan + three local refinements."""
    xs = np.geomspace(1e-9, 1e9, 4001)
    xs = np.concatenate([[0.0], xs])
    best = xs[int(np.argmax(xs * y - phi(xs)))]
    lo, hi = best / 3.0, best * 3.0 + 1e-9
    for _ in range(3):
        xs = np.linspace(lo, hi, 4001)
        vals = xs * y - phi(xs)
        i = int(np.argmax(vals))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    return float(vals[i])


# ---------------------------------------------------------------------------
# Young function basics
# ---------------------------------------------------------------------------


def test_power_young_evaluates_exactly():
    phi = power_young(2.0)
    for x in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert phi(x) == pytest.approx(x**2, rel=1e-14)
    half = power_young(2.0, 0.5)  # Phi(y) = y^2/2
    assert half(3.0) == pytest.approx(4.5, rel=1e-14)


def test_young_validation_rejects_bad_densities():
    with pytest.raises(OrliczError):
        YoungFunction([])  # empty
    with pytest.raises(OrliczError):
        YoungFunction([Segment(1.0, "power", 1.0, 1.0)])  # does not start at 0
    with pytest.raises(OrliczError):
        YoungFunction([Segment(0.0, "const", 2.0, 0.0)])  # jumps at 0+
    with pytest.raises(OrliczError):  # decreasing density across the break
        YoungFunction(
            [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "const", 0.5, 0.0)]
        )
    with pytest.raises(OrliczError):
        YoungFunction(
            [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "power", -1.0, 1.0)]
        )
    with pytest.raises(OrliczError):  # non-increasing breakpoints
        YoungFunction(
            [Segment(0.0, "power", 1.0, 1.0), Segment(0.0, "const", 1.0, 0.0)]
        )


def test_zero_plateau_then_power_is_a_valid_young_function():
    # Phi = 0 on [0,1], then quadratic growth: standard E_Phi example.
    phi = YoungFunction(
        [Segment(0.0, "const", 0.0, 0.0), Segment(1.0, "power", 2.0, 1.0)]
    )
    assert phi(0.5) == 0.0
    assert phi(1.0) == 0.0
    # integral_1^2 2(x-? ) -- density is 2x on [1,2]: Phi(2) = 4 - 1 = 3
    assert phi(2.0) == pytest.approx(3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------


def test_luxemburg_matches_p_norms_seeded():
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        phi = power_young(p)
        for case in range(30):
            f = _staircase(rng, tail=case % 3 == 0)
            if not np.any(f.values > 0.0):
                continue
            assert luxemburg_norm(phi, f) == pytest.approx(
                _p_norm(f, p), rel=1e-10
            )


def test_luxemburg_frozen_cases():
    phi2 = power_young(2.0)
    # ||1||_{L^2(0,4)} = 2
    f = SampledFunction([0.0, 4.0], [1.0])
    assert luxemburg_norm(phi2, f) == pytest.approx(2.0, rel=1e-10)
    # two-step profile: integral (f/k)^2 = (4 + 2)/k^2 = 1  =>  k = sqrt(6)
    g = SampledFunction([0.0, 1.0, 3.0], [2.0, 1.0])
    assert luxemburg_norm(phi2, g) == pytest.approx(math.sqrt(6.0), rel=1e-10)
    # exponential tail: integral = (1 + 1/2)/k^2  =>  k = sqrt(1.5)
    h = SampledFunction([0.0, 1.0], [1.0], tail_rate=1.0)
    assert luxemburg_norm(phi2, h) == pytest.approx(math.sqrt(1.5), rel=1e-10)
    assert luxemburg_norm(phi2, SampledFunction([0.0, 1.0], [0.0])) == 0.0


def test_luxemburg_homogeneity_and_monotonicity():
    rng = np.random.default_rng(21)
    phi = YoungFunction(
        [Segment(0.0, "power", 1.0, 1.0), Segment(2.0, "power", 0.75, 2.0)]
    )
    for _ in range(60):
        f = _staircase(rng, tail=True)
        if not np.any(f.values > 0.0):
            continue
        c = float(rng.uniform(0.1, 10.0))
        base = luxemburg_norm(phi, f)
        assert luxemburg_norm(phi, f.scaled(c)) == pytest.approx(
            c * base, rel=1e-9
        )
        bigger = SampledFunction(
            f.edges, f.values + rng.uniform(0.0, 1.0, size=len(f.values)),
            f.tail_rate,
        )
        assert base <= luxemburg_norm(phi, bigger) * (1.0 + 1e-9)


def test_modular_at_the_norm_is_at_most_one():
    rng = np.random.default_rng(5)
    phi = power_young(2.5)
    for _ in range(40):
        f = _staircase(rng, tail=False)
        if not np.any(f.values > 0.0):
            continue
        k = luxemburg_norm(phi, f)
        assert modular(phi, f, k) <= 1.0 + 1e-8
        # the returned endpoint brackets the true infimum from above
        assert modular(phi, f, k * (1.0 - 5e-10)) > 1.0 - 1e-6


def test_modular_exponential_tail_closed_form():
    # f = 2 e^{-0.5 (s-1)} beyond s=1, Phi = x^3:
    # tail integral = integral_0^inf 8 e^{-1.5 u} du = 16/3
    phi = power_young(3.0)
    f = SampledFunction([0.0, 1.0], [2.0], tail_rate=0.5)
    exact = 8.0 + 16.0 / 3.0
    assert modular(phi, f, 1.0) == pytest.approx(exact, rel=1e-13)
    # Riemann cross-check of the tail term
    u = np.linspace(0.0, 60.0, 400_001)
    tail = np.trapezoid(phi(2.0 * np.exp(-0.5 * u)), u)
    assert modular(phi, f, 1.0) - 8.0 == pytest.approx(tail, rel=1e-8)


def test_bracket_error_for_degenerate_phi():
    flat = YoungFunction([Segment(0.0, "const", 0.0, 0.0)])  # Phi == 0
    f = SampledFunction([0.0, 1.0], [1.0])
    with pytest.raises(BracketError):
        luxemburg_norm(flat, f)
    # two zero constants, a tail, and a profile so small that halving k
    # underflows before the iteration budget runs out
    flat2 = YoungFunction([Segment(0.0, "const", 0.0), Segment(1.0, "const", 0.0)])
    for g in (
        SampledFunction([0.0, 1.0, 2.0], [1.0, 3.0], tail_rate=0.5),
        SampledFunction([0.0, 1.0], [1e-300]),
    ):
        for young in (flat, flat2):
            with pytest.raises(BracketError):
                luxemburg_norm(young, g)


# Young functions for the Luxemburg certificate tests: a pure power, the
# power/constant/power function of the benchmark, two powers, and a zero
# plateau before a quadratic.
LUX_PHIS = {
    "power": power_young(3.0, 0.5),
    "segments": YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(1.0, "const", 3.0, 0.0),
         Segment(2.0, "power", 1.5, 1.0)]
    ),
    "two-powers": YoungFunction(
        [Segment(0.0, "power", 1.0, 1.0), Segment(2.0, "power", 0.75, 2.0)]
    ),
    "plateau": YoungFunction(
        [Segment(0.0, "const", 0.0, 0.0), Segment(1.0, "power", 2.0, 1.0)]
    ),
}


def _certified(phi, f, k, rel_tol):
    return modular(phi, f, k) <= 1.0 < modular(phi, f, k * (1.0 - 0.25 * rel_tol))


@pytest.mark.parametrize("name", sorted(LUX_PHIS))
def test_luxemburg_two_sided_rel_tol_bracket(name):
    # The returned k has modular <= 1, and k (1 - rel_tol/4) has modular > 1.
    phi = LUX_PHIS[name]
    rng = np.random.default_rng(17)
    for rel_tol in (1e-4, 1e-8, 1e-10, 1e-12):
        for case in range(24):
            f = _staircase(rng, max_pieces=40, tail=case % 2 == 1)
            if not np.any(f.values > 0.0):
                continue
            k = luxemburg_norm(phi, f, rel_tol=rel_tol)
            assert _certified(phi, f, k, rel_tol), (rel_tol, case)


def test_power_closed_form_against_mpmath():
    # ||f|| for Phi = c x^p is (c (sum w v^p + a^p/(p rho)))^{1/p}; evaluated
    # at 30 digits from the exact binary inputs.  The returned k lies in the
    # certified bracket [||f||, ||f|| / (1 - rel_tol/4)], up to rounding.
    mp = pytest.importorskip("mpmath")
    rel_tol = 1e-13
    rng = np.random.default_rng(29)
    for p, c in ((1.5, 1.0), (2.0, 0.5), (3.0, 0.5), (4.5, 2.0)):
        phi = power_young(p, c)
        for case in range(12):
            f = _staircase(rng, max_pieces=30, tail=case % 2 == 0)
            if not np.any(f.values > 0.0):
                continue
            with mp.workdps(30):
                pp = mp.mpf(p)
                mass = mp.fsum(
                    mp.mpf(float(v)) ** pp * (mp.mpf(float(b)) - mp.mpf(float(a)))
                    for v, a, b in zip(f.values, f.edges[:-1], f.edges[1:])
                )
                if f.tail_rate is not None:
                    mass += mp.mpf(float(f.values[-1])) ** pp / (pp * mp.mpf(f.tail_rate))
                want = (mp.mpf(c) * mass) ** (1 / pp)
                k = mp.mpf(luxemburg_norm(phi, f, rel_tol=rel_tol))
                assert want * (1 - 1e-14) <= k <= want * (1 + 0.25 * rel_tol + 1e-14), (p, case)


def test_luxemburg_extremes():
    rng = np.random.default_rng(31)
    for name, phi in LUX_PHIS.items():
        # values near 1e+-150: the norm scales exactly and stays certified
        base = _staircase(rng, max_pieces=12, tail=True)
        k = luxemburg_norm(phi, base)
        for scale in (1e-150, 1e150):
            big = base.scaled(scale)
            ks = luxemburg_norm(phi, big)
            assert ks == pytest.approx(scale * k, rel=1e-9), name
            assert _certified(phi, big, ks, 1e-10), (name, scale)
        # a single piece: width * Phi(v/k) = 1, so k = v / Phi^{-1}(1/width)
        one = SampledFunction([0.5, 2.5], [1.7])
        want = 1.7 / phi.inverse(0.5)
        assert luxemburg_norm(phi, one) == pytest.approx(want, rel=1e-10), name
        # a zero tail amplitude adds nothing to the modular
        edges, vals = [0.0, 1.0, 2.0], [2.0, 0.0]
        tailed = SampledFunction(edges, vals, tail_rate=0.7)
        plain = SampledFunction(edges, vals)
        assert modular(phi, tailed, 1.3) == modular(phi, plain, 1.3)
        kt = luxemburg_norm(phi, tailed)
        assert kt == pytest.approx(luxemburg_norm(phi, plain), rel=1e-10), name
        assert _certified(phi, plain, kt, 1e-10), name


def _count_passes(monkeypatch):
    """Count the modular passes over the profile, with or without slope."""
    calls = {"passes": 0}
    real = orlicz.modular

    def counted(*args, **kwargs):
        calls["passes"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(orlicz, "modular", counted)
    return calls


def test_pure_power_norm_takes_two_modular_passes(monkeypatch):
    # One pass at sup|u|, whose log-log step is the closed form, and one at
    # the closed form, whose slope certifies it.
    calls = _count_passes(monkeypatch)
    rng = np.random.default_rng(37)
    for p in (1.2, 2.0, 3.0, 7.0):
        phi = power_young(p, 0.5)
        for case in range(40):
            f = _staircase(rng, max_pieces=256, tail=case % 2 == 0)
            if not np.any(f.values > 0.0):
                continue
            calls["passes"] = 0
            luxemburg_norm(phi, f)
            assert calls["passes"] == 2, (p, case)


def test_piecewise_norm_takes_a_handful_of_passes(monkeypatch):
    # Bisection took about 38 passes per norm; Newton needs at most 8 here.
    calls = _count_passes(monkeypatch)
    rng = np.random.default_rng(41)
    phi = LUX_PHIS["segments"]
    for case in range(60):
        f = _staircase(rng, max_pieces=256, tail=case % 2 == 0)
        if not np.any(f.values > 0.0):
            continue
        calls["passes"] = 0
        luxemburg_norm(phi, f)
        assert calls["passes"] <= 8, case


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def test_complementary_of_power_is_the_dual_power():
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        conj = complementary(power_young(p, 1.0 / p))
        dual = power_young(q, 1.0 / q)
        ys = np.geomspace(1e-4, 1e4, 41)
        np.testing.assert_allclose(conj(ys), dual(ys), rtol=1e-12)


def test_complementary_against_refined_brute_force():
    cases = [
        YoungFunction(
            [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "const", 1.0, 0.0),
             Segment(2.0, "power", 0.5, 1.0)]
        ),
        YoungFunction(
            [Segment(0.0, "power", 2.0, 2.0), Segment(1.5, "power", 2.0, 3.0)]
        ),
        YoungFunction(
            [Segment(0.0, "power", 0.5, 2.0), Segment(2.0, "const", 2.0, 0.0),
             Segment(5.0, "power", 0.4, 1.0)]
        ),
    ]
    for phi in cases:
        conj = complementary(phi)
        for y in np.geomspace(0.05, 20.0, 25):
            ref = _brute_conjugate(phi, float(y))
            assert conj(float(y)) == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_biconjugation_recovers_the_original():
    phi = YoungFunction(
        [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "power", 2.0, 2.0)]
    )
    back = complementary(complementary(phi))
    xs = np.geomspace(1e-3, 1e3, 101)
    np.testing.assert_allclose(back(xs), phi(xs), rtol=1e-12)


def test_compose_sqrt_power_case():
    # Psi(y) = y^2/2 is self-conjugate; Phi(x) = Psi~(x^2) = x^4/2
    psi = power_young(2.0, 0.5)
    phi = compose_sqrt(psi)
    xs = np.geomspace(0.01, 10.0, 31)
    np.testing.assert_allclose(phi(xs), xs**4 / 2.0, rtol=1e-12)


def test_compose_sqrt_matches_definition_pointwise():
    psi = YoungFunction(
        [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "power", 3.0, 2.0)]
    )
    conj = complementary(psi)
    phi = compose_sqrt(psi)
    for x in np.geomspace(0.05, 6.0, 23):
        assert phi(float(x)) == pytest.approx(conj(float(x) ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# Hölder
# ---------------------------------------------------------------------------


def test_holder_equality_normalization_case():
    # u = v = 1 on (0,1), Phi = x^2: ||u|| = 1, Phi~ = y^2/4 gives ||v|| = 1/2,
    # so lhs = 1 and rhs = 2 * 1 * 1/2 = 1: the bound is tight here.
    phi = power_young(2.0)
    one = SampledFunction([0.0, 1.0], [1.0])
    lhs, rhs = holder_bound(phi, one, one)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-10)


def test_holder_never_violated_seeded():
    rng = np.random.default_rng(11)
    phis = [
        power_young(2.0),
        power_young(3.0, 0.25),
        YoungFunction(
            [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "power", 2.0, 3.0)]
        ),
    ]
    for i in range(100):
        phi = phis[i % len(phis)]
        u = _staircase(rng, tail=i % 4 == 0)
        v = _staircase(rng, tail=i % 5 == 0)
        lhs, rhs = holder_bound(phi, u, v)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_young_inequality_on_a_grid():
    phi = YoungFunction(
        [Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "const", 1.0, 0.0),
         Segment(3.0, "power", 1.0 / 3.0, 1.0)]
    )
    conj = complementary(phi)
    xs = np.geomspace(1e-4, 1e4, 100)
    ys = np.geomspace(1e-4, 1e4, 100)
    X, Y = np.meshgrid(xs, ys)
    gap = phi(X) + conj(Y) - X * Y
    assert float(gap.min()) >= -1e-9 * float(np.max(X * Y))


# ---------------------------------------------------------------------------
# de-la-Vallée-Poussin construction
# ---------------------------------------------------------------------------


def test_dvp_profiles_yield_finite_modular():
    rng = np.random.default_rng(3)
    profiles = [
        SampledFunction([0.0, 1.0, 2.0, 4.0], [5.0, 2.0, 0.5]),
        SampledFunction([0.0, 0.5], [1.0], tail_rate=1.0),  # e^{-s} style decay
        _staircase(rng, max_pieces=12, tail=True),
    ]
    for f in profiles:
        phi, report = dvp_construct(f)
        YoungFunction(phi.segments)  # re-runs every class invariant
        value = modular(phi, f, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(report["modular"], rel=1e-12)
        # superlinearity at infinity: Phi(x)/x grows across a decade
        assert phi(2e6) / 2e6 > 2.0 * phi(1e5) / 1e5


def test_dvp_level_cap_and_zero_profile():
    with pytest.raises(OrliczError):
        dvp_construct(SampledFunction([0.0, 1.0], [3e5]))  # too many levels
    phi, report = dvp_construct(SampledFunction([0.0, 1.0], [0.0]))
    assert report["modular"] == 0.0
    assert phi(2.0) > 0.0  # still a genuine Young function


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_young_json_roundtrip():
    phi = young_from_json({"segments": [
        {"x0": 0.0, "kind": "power", "c": 1.0, "r": 1.0},
        {"x0": 1.0, "kind": "const", "c": 1.0},
        {"x0": 2.5, "kind": "power", "c": 0.4, "r": 1.0},
    ]})
    assert phi.segments == (
        Segment(0.0, "power", 1.0, 1.0), Segment(1.0, "const", 1.0, 0.0),
        Segment(2.5, "power", 0.4, 1.0),
    )
    with pytest.raises(OrliczError):
        young_from_json({"segments": [{"x0": 0.0}]})


def test_scaled_scales_the_sup_and_the_l1_norm():
    edges = np.linspace(0, 2, 9)
    f = SampledFunction(edges, np.exp(-edges[:-1]))
    assert f.sup_norm() == pytest.approx(1.0)
    g = f.scaled(3.0)
    assert g.sup_norm() == pytest.approx(3.0)
    assert g.l1() == pytest.approx(3.0 * f.l1(), rel=1e-14)


def test_powers_beyond_the_float_range_are_taken_in_logs():
    # 100**200 overflows while the density and the tail integral of
    # 1e-300 x**200 do not: 1e-300 * 200 * 100**199 = 2e100 and
    # integral_0^100 1e-300 v**199 dv = 5e97.  Read as inf, such a density
    # would fail the nondecreasing check of a valid Young function
    # (test_cli's test_a_density_whose_power_alone_overflows_is_accepted).
    phi = power_young(200.0, 1e-300)
    (seg,) = phi.segments
    assert seg.density_at(100.0) == pytest.approx(2e100, rel=1e-12)
    assert phi.phi_over_x_integral(100.0) == pytest.approx(5e97, rel=1e-12)
    # past the float range they are inf
    assert seg.density_at(1e4) == math.inf
    assert phi.phi_over_x_integral(1e4) == math.inf


def test_split_powers_match_mpmath():
    # c * x**e where x**e alone overflows and the product does not: within
    # a few roundings of 60-digit mpmath, on both split depths (e/2, e/4)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = np.random.default_rng(12)
    depths = set()
    for i in range(400):
        x = float(10.0 ** rng.uniform(0.1, 300.0))
        bits = float(rng.uniform(*((1025.0, 2040.0), (2050.0, 2060.0))[i % 2]))  # log2 x**e
        e = bits / math.log2(x)
        c = float(2.0 ** rng.uniform(max(-1070.0, -1000.0 - bits), 1000.0 - bits))
        want = mp.mpf(c) * mp.mpf(x) ** mp.mpf(e)
        depths.add(2 if bits < 2047.0 else 4)
        assert float(abs(orlicz._scaled_power(c, x, e) - want) / want) < 1e-15
    assert depths == {2, 4}
    # the density of 2e-298 x**199 at 1000 is 2e299, not 1.9999999999996e299
    (seg,) = power_young(200.0, 1e-300).segments
    want = mp.mpf(seg.c) * mp.mpf(1000) ** 199
    assert float(abs(seg.density_at(1000.0) - want) / want) < 1e-15


def test_phi_whose_power_alone_overflows_matches_mpmath():
    # Phi(x) = 1e-320 x**200: 36**200 overflows, Phi(36) = 1.8e-9 does not
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    phi = power_young(200.0, 1e-320)
    coef = mp.mpf(phi.terms[2][0])
    xs = np.array([3.0, 36.0, 40.0])
    got = phi(xs)
    for x, value in zip(xs, got):
        want = coef * mp.mpf(x) ** 200
        assert float(abs(value - want) / want) < 1e-15
    assert phi(36.0) == got[1] and phi(1e4) == math.inf  # 1e480: beyond the range
    # f = 100 on [0, 1] with an e^-s tail: with y = 100/k the modular is
    # Phi(y) + integral_0^y Phi(v)/v dv = (coef + c/200**2) y**200, where the
    # subnormal coef = c/200 keeps few bits, so the norm solves that = 1
    u = SampledFunction([0.0, 1.0], [100.0], tail_rate=1.0)
    k = luxemburg_norm(phi, u)
    (seg,) = phi.segments
    want = 100 * (coef + mp.mpf(seg.c) / 200**2) ** (mp.mpf(1) / 200)
    assert k == pytest.approx(float(want), rel=1e-9)
    assert modular(phi, u, k) <= 1.0 < modular(phi, u, k * (1.0 - 1e-10))
