"""Diagonal generator, scale ladder, semigroup/resolvent/fractional-power ops."""

import math

import numpy as np
import pytest

from admlab._quad import adaptive_interval
from admlab.spectral import (
    DiagonalGenerator,
    SectorError,
    SpectralError,
    SpectralVector,
    SpectrumHit,
    basis_vector,
    frac_power_apply,
    generator_from_json,
    hinf_multiplier,
    resolvent_apply,
    semigroup_apply,
    space_norm,
)

LAMS = [-1.0 + 0.0j, -2.0 + 1.5j, -2.0 - 1.5j, -5.0 + 0.25j]


def _rand_vec(rng, A, scale="X"):
    raw = rng.normal(size=A.n_modes) + 1j * rng.normal(size=A.n_modes)
    return SpectralVector(raw, scale)


def test_constructor_validation():
    with pytest.raises(SpectralError):
        DiagonalGenerator([1.0])  # right half-plane
    with pytest.raises(SpectralError):
        DiagonalGenerator([-1.0], weights=[0.0])
    with pytest.raises(SpectralError):
        DiagonalGenerator([-1.0], weights=[1.0, 2.0])
    with pytest.raises(SpectralError):
        DiagonalGenerator([])
    # beta defaults: 0 when the spectrum stays away from it, else 1
    assert DiagonalGenerator([-1.0]).beta == 0.0
    assert DiagonalGenerator([-1e-13]).beta == 1.0


def test_semigroup_law():
    A = DiagonalGenerator(LAMS)
    rng = np.random.default_rng(0)
    x = _rand_vec(rng, A)
    for s, t in [(0.3, 0.7), (1.0, 2.5), (0.0, 4.0)]:
        once = semigroup_apply(A, s + t, x)
        twice = semigroup_apply(A, s, semigroup_apply(A, t, x))
        np.testing.assert_allclose(
            once.coefficients, twice.coefficients, rtol=1e-14, atol=1e-300
        )
    with pytest.raises(SpectralError):
        semigroup_apply(A, -0.1, x)


@pytest.mark.parametrize("dead_share", [0.0, 0.3, 0.9])
def test_semigroup_skips_underflowed_modes(dead_share):
    # e^{lambda t} is 0 where Re(lambda t) underflows; live modes keep numpy's bits
    rng = np.random.default_rng(5)
    n = 2000
    re = -rng.uniform(0.1, 40.0, n)
    dead = rng.random(n) < dead_share
    re[dead] = -rng.uniform(800.0, 5000.0, int(dead.sum()))
    A = DiagonalGenerator(re + 1j * rng.uniform(-1e3, 1e3, n))
    x = _rand_vec(rng, A)
    got = semigroup_apply(A, 1.0, x).coefficients
    with np.errstate(under="ignore"):
        want = x.coefficients * np.exp(A.eigenvalues)
    assert np.array_equal(got[~dead], want[~dead])
    assert np.all(got[dead] == 0.0) and np.all(want[dead] == 0.0)


def test_resolvent_identity():
    A = DiagonalGenerator(LAMS)
    rng = np.random.default_rng(1)
    x = _rand_vec(rng, A)
    l1, l2 = 0.5 + 0.3j, 2.0 - 1.0j
    lhs = (
        resolvent_apply(A, l1, x).coefficients
        - resolvent_apply(A, l2, x).coefficients
    )
    rhs = (l2 - l1) * resolvent_apply(A, l1, resolvent_apply(A, l2, x)).coefficients
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-300)


def test_resolvent_spectrum_hit_and_scale_bump():
    A = DiagonalGenerator(LAMS)
    x = basis_vector(A, 0)
    with pytest.raises(SpectrumHit):
        resolvent_apply(A, LAMS[1], x)
    assert resolvent_apply(A, 1.0, x).scale == "X1"
    x1 = SpectralVector(x.coefficients, "X1")
    assert resolvent_apply(A, 1.0, x1).scale == "X1"  # ladder is capped
    xm = SpectralVector(x.coefficients, "Xm1")
    assert resolvent_apply(A, 1.0, xm).scale == "X"


def test_laplace_link_quadrature():
    # R(l)x = integral_0^inf e^{-l s} T(s) x ds, checked per mode to rel 1e-8
    A = DiagonalGenerator(LAMS)
    rng = np.random.default_rng(2)
    x = _rand_vec(rng, A)
    l0 = 0.75
    res = resolvent_apply(A, l0, x).coefficients
    for n, lam in enumerate(A.eigenvalues):
        rate = l0 - lam.real
        top = 40.0 / rate
        re = adaptive_interval(
            lambda s: np.real(np.exp((lam - l0) * s) * x.coefficients[n]),
            0.0, top, 1e-12 * max(abs(res[n]), 1e-6),
        )
        im = adaptive_interval(
            lambda s: np.imag(np.exp((lam - l0) * s) * x.coefficients[n]),
            0.0, top, 1e-12 * max(abs(res[n]), 1e-6),
        )
        assert complex(re, im) == pytest.approx(res[n], rel=1e-8)


def test_frac_power_principal_root_frozen():
    # sqrt(-lambda) for lambda = -1 - 1j is sqrt(1 + 1j), principal branch
    A = DiagonalGenerator([-1.0 + 1.0j])  # -lambda = 1 - 1j
    x = basis_vector(A, 0, scale="X")
    out = frac_power_apply(A, x)
    assert out.coefficients[0] == pytest.approx(
        1.09868411346781 - 0.45508986056222733j, rel=1e-14
    )
    assert out.scale == "Xm1"


def test_frac_power_squares_to_minus_a():
    A = DiagonalGenerator(LAMS)
    rng = np.random.default_rng(3)
    x = _rand_vec(rng, A, scale="X1")
    twice = frac_power_apply(A, frac_power_apply(A, x))
    np.testing.assert_allclose(
        twice.coefficients, -A.eigenvalues * x.coefficients, rtol=1e-14
    )
    assert twice.scale == "Xm1"
    with pytest.raises(SpectralError):
        frac_power_apply(A, SpectralVector(x.coefficients, "Xm1"))


def test_sector_angles():
    assert DiagonalGenerator([-1.0, -4.0]).sector_angle == 0.0
    ray = DiagonalGenerator.from_ray(1.0, 1.0, math.pi / 4, 8)
    assert ray.sector_angle == pytest.approx(math.pi / 4, rel=1e-15)
    k = 3.0
    mixed = DiagonalGenerator([-1.0 + k * 1.0j, -1.0 - k * 1.0j])
    assert mixed.sector_angle == pytest.approx(math.atan(k), rel=1e-15)
    with pytest.raises(SpectralError):
        DiagonalGenerator.from_ray(1.0, 1.0, math.pi / 2, 4)
    # Re < 0 passes the constructor, but the angle rounds to pi/2 in floats
    grazing = DiagonalGenerator([-1e-300 + 1.0j])
    with pytest.raises(SectorError):
        frac_power_apply(grazing, basis_vector(grazing, 0))


def test_space_norm_ladder_formulas():
    # lambda_1 = -2, beta = 0: ||A e_1||_{X-1} = |lambda| sqrt(w/|beta-lambda|^2) = 1
    A = DiagonalGenerator([-2.0])
    bumped = SpectralVector([-2.0 + 0.0j], "Xm1")
    assert space_norm(A, bumped) == pytest.approx(1.0, rel=1e-15)
    # all three scales against the explicit weight formulas
    B = DiagonalGenerator(LAMS, weights=[0.5, 1.0, 2.0, 4.0])
    rng = np.random.default_rng(4)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    w, lam = B.weights, B.eigenvalues
    expect = {
        "X": math.sqrt(float(np.sum(w * np.abs(c) ** 2))),
        "X1": math.sqrt(float(np.sum(w * (1 + np.abs(lam) ** 2) * np.abs(c) ** 2))),
        "Xm1": math.sqrt(float(np.sum(w / np.abs(B.beta - lam) ** 2 * np.abs(c) ** 2))),
    }
    for scale, val in expect.items():
        assert space_norm(B, SpectralVector(c, scale)) == pytest.approx(val, rel=1e-14)
    giant = SpectralVector(np.full(4, 1e200 + 0j), "X1")
    assert space_norm(B, giant) == math.inf  # overflow guard, not an exception


def test_rescaling_covariance():
    lam = np.array(LAMS)
    A = DiagonalGenerator(lam)
    Ac = DiagonalGenerator(3.0 * lam)
    x = basis_vector(A, 2)
    a = semigroup_apply(A, 3.0 * 0.4, x).coefficients
    b = semigroup_apply(Ac, 0.4, SpectralVector(x.coefficients, "X")).coefficients
    np.testing.assert_allclose(a, b, rtol=1e-15)


def test_hinf_multiplier_matches_per_mode_values():
    A = DiagonalGenerator(LAMS)
    rng = np.random.default_rng(5)
    x = _rand_vec(rng, A)

    def g(z):
        return z / (1.0 + z) ** 2

    out, bound = hinf_multiplier(A, g, x)
    np.testing.assert_allclose(
        out.coefficients, g(-A.eigenvalues) * x.coefficients, rtol=1e-15
    )
    assert bound == pytest.approx(float(np.max(np.abs(g(-A.eigenvalues)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SpectralError):
            hinf_multiplier(A, lambda z: 1.0 / (z - 1.0), x)  # pole at -lambda_1


def test_ray_rule_and_json_roundtrip():
    A = DiagonalGenerator.from_ray(2.0, 1.5, math.pi / 6, 5)
    lam = A.eigenvalues
    mags = 2.0 * np.arange(1, 6) ** 1.5
    np.testing.assert_allclose(np.abs(lam), mags, rtol=1e-15)
    assert np.all(lam.real < 0.0)
    ray = generator_from_json(
        {"kind": "ray", "base": 2.0, "exponent": 1.5, "angle": math.pi / 6,
         "count": 5}
    )
    np.testing.assert_allclose(ray.eigenvalues, A.eigenvalues, rtol=1e-15)
    with pytest.raises(SpectralError):
        generator_from_json({"kind": "ray", "base": 2.0})
