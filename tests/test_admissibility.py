"""Input maps, norm bounds per signal space, and certificate identities."""

import math
import warnings

import numpy as np
import pytest

from admlab.admissibility import (
    AdmissibilityError,
    AdmissibilityReport,
    CertificateViolation,
    InputOperator,
    factorization_check,
    infinite_time_sup,
    input_map,
    l2_adm_constant,
    linfty_bounds,
    orlicz_adm_bound,
    trajectory,
    zero_class_profile,
)
from admlab.certify import weiss_check
from admlab.orlicz import power_young
from admlab.signals import PiecewiseSignal, mode_integrals, random_signal
from admlab.spectral import DiagonalGenerator, SpectralVector, space_norm
from dense_counterexample import counterexample_input

LAMS = [-1.0, -2.0 + 1.5j, -2.0 - 1.5j, -5.0]


def _ones(t, channels=1):
    vals = [1.0 + 0j] if channels == 1 else [np.ones(channels, dtype=complex)]
    return PiecewiseSignal([0.0, t], vals)


def test_input_map_closed_forms():
    A = DiagonalGenerator(LAMS)
    lam = A.eigenvalues
    t = 0.8
    # explicit column b, u = 1: mode n carries b_n (e^{lam t} - 1)/lam
    b = np.array([1.0, 0.5j, 0.5, -0.25])
    out = input_map(A, InputOperator.columns(b), _ones(t))
    np.testing.assert_allclose(
        out.coefficients, b * (np.exp(lam * t) - 1.0) / lam, rtol=1e-14
    )
    # rank-one A_{-1} x0, u = 1: the lambdas cancel, leaving (e^{lam t} - 1) x0
    x0 = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    out = input_map(A, InputOperator.aminus_x0(x0), _ones(t))
    np.testing.assert_allclose(out.coefficients, np.exp(lam * t) - 1.0, rtol=1e-14)
    assert out.scale == "X"


def test_input_map_probe_matches_resolvent_limit():
    A = DiagonalGenerator(LAMS)
    lam = A.eigenvalues
    mu = 0.75
    x0 = np.full(4, 1.0, dtype=complex)
    t = 3.0
    probe = PiecewiseSignal([0.0, t], [1.0 + 0j], "probe", mu)
    out = input_map(A, InputOperator.aminus_x0(x0), probe)
    expect = lam * (np.exp((lam - mu) * t) - 1.0) / (lam - mu)
    np.testing.assert_allclose(out.coefficients, expect, rtol=1e-13)
    # as t grows this converges to lam/(mu - lam), the resolvent applied to
    # the column A x0 (up to sign the Laplace transform of T(.)A_{-1}x0)
    long = PiecewiseSignal([0.0, 60.0], [1.0 + 0j], "probe", mu)
    out = input_map(A, InputOperator.aminus_x0(x0), long)
    np.testing.assert_allclose(out.coefficients, lam / (mu - lam), rtol=1e-10)


def test_trajectory_closed_form_and_horizon_guard():
    A = DiagonalGenerator(LAMS)
    x0 = np.full(4, 1.0, dtype=complex)
    state = SpectralVector(x0, "X")
    t = 0.6
    # x' = Ax + A_{-1}x0 u with u = 1 and x(0) = x0: x(t) = (2 e^{lam t} - 1) x0
    out = trajectory(A, InputOperator.aminus_x0(x0), state, _ones(1.0), t)
    np.testing.assert_allclose(
        out.coefficients, 2.0 * np.exp(A.eigenvalues * t) - 1.0, rtol=1e-14
    )
    with pytest.raises(AdmissibilityError):
        input_map(A, InputOperator.aminus_x0(x0), _ones(1.0), t=1.5)
    with pytest.raises(AdmissibilityError):
        trajectory(A, InputOperator.aminus_x0(x0), state, _ones(1.0), 1.5)


def test_trajectory_tags_a_state_that_left_x():
    A = DiagonalGenerator([-1.0, -2.0])
    x0 = SpectralVector(np.ones(2, dtype=complex), "X")
    huge = InputOperator.columns(np.array([[1e300], [0.5]]))
    with pytest.warns(UserWarning, match="left X numerically"):
        out = trajectory(A, huge, x0, _ones(1.0), 0.5)
    assert out.scale == "Xm1"
    tame = InputOperator.columns(np.array([[1.0], [0.5]]))
    assert trajectory(A, tame, x0, _ones(1.0), 0.5).scale == "X"
    # a free part already outside X keeps the tag
    assert trajectory(A, tame, SpectralVector(out.coefficients, "Xm1"),
                      _ones(1.0), 0.5).scale == "Xm1"


def test_aminus_full_needs_per_mode_signal():
    A = DiagonalGenerator(LAMS)
    with pytest.raises(AdmissibilityError):
        input_map(A, InputOperator.aminus_full(), _ones(1.0))
    gammas = [-(2.0**m) for m in range(4)]
    Ag = DiagonalGenerator(gammas)
    u = counterexample_input(gammas)
    out = input_map(Ag, InputOperator.aminus_full(), u)
    assert np.all(np.isfinite(out.coefficients))
    assert space_norm(Ag, out) > 0.0


def test_input_operator_validation():
    with pytest.raises(AdmissibilityError):
        InputOperator("diag")
    with pytest.raises(AdmissibilityError):
        InputOperator.columns(np.empty((0, 0)))
    with pytest.raises(AdmissibilityError):
        InputOperator.aminus_x0([np.inf])
    with pytest.raises(AdmissibilityError):
        InputOperator("aminus_full", data=[1.0])
    A = DiagonalGenerator(LAMS)
    with pytest.raises(AdmissibilityError):
        InputOperator.columns(np.eye(3)).check_alignment(A)


def test_l2_adm_constant_frozen_and_certified():
    assert l2_adm_constant(DiagonalGenerator([-1.0])) == pytest.approx(
        2.0**-0.5, rel=1e-15
    )
    assert l2_adm_constant(DiagonalGenerator([-1.0 + 1.0j])) == pytest.approx(
        2.0**-0.25, rel=1e-15
    )
    # K2 certifies the square-root-diagonal operator against the L2 norm
    A = DiagonalGenerator([-1.0, -2.0 + 1.5j, -2.0 - 1.5j, -5.0, -0.5, -8.0])
    K2 = l2_adm_constant(A)
    B = InputOperator.columns(np.diag(np.sqrt(-A.eigenvalues)))
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = float(rng.uniform(0.2, 5.0))
        u = random_signal(rng, t, int(rng.integers(2, 9)), n_channels=6)
        lhs = space_norm(A, input_map(A, B, u))
        widths = np.diff(u.breakpoints)
        l2 = math.sqrt(float(widths @ np.sum(np.abs(u.values) ** 2, axis=1)))
        assert lhs <= K2 * l2 * (1.0 + 1e-12)


def test_linfty_bounds_self_adjoint_rank_one():
    A = DiagonalGenerator([-float(n) for n in range(1, 9)])
    x0 = np.zeros(8, dtype=complex)
    x0[0] = 1.0
    rep = linfty_bounds(A, InputOperator.aminus_x0(x0), t=2.0)
    assert rep.routes["hinf-multiplier"]["value"] == 1.0
    assert rep.routes["factorization"]["value"] == pytest.approx(1.0, rel=1e-14)
    assert math.isinf(rep.routes["kernel-L1"]["value"])
    assert rep.routes["kernel-L1"]["reason"]
    assert rep.upper == 1.0
    assert rep.route == "hinf-multiplier"
    # the phase-search lower bound is genuine: sandwiched by the true norm
    assert rep.lower == pytest.approx(1.0 - math.exp(-2.0), rel=1e-6)
    assert rep.lower <= rep.upper


def test_linfty_kernel_route_closed_form():
    A = DiagonalGenerator([-float(n) for n in range(1, 9)])
    B = InputOperator.columns(np.eye(8)[:, :1])
    for t in (0.5, 2.0):
        rep = linfty_bounds(A, B, t)
        assert rep.routes["kernel-L1"]["value"] == pytest.approx(
            (1.0 - math.exp(-t)) / 1.0, rel=1e-14
        )
    # the kernel value is monotone in t, as the norms themselves are
    r1, r2 = linfty_bounds(A, B, 0.5), linfty_bounds(A, B, 2.0)
    assert r1.routes["kernel-L1"]["value"] < r2.routes["kernel-L1"]["value"]


def test_linfty_aminus_full_reports_per_column():
    A = DiagonalGenerator(LAMS)
    rep = linfty_bounds(A, InputOperator.aminus_full(), t=1.0)
    assert math.isinf(rep.upper)
    for info in rep.routes.values():
        assert math.isinf(info["value"]) and info["reason"]
    assert rep.per_column is not None
    per_col = np.asarray(rep.per_column["upper"], dtype=float)
    assert per_col.shape == (4,)
    assert np.all(np.isfinite(per_col))


def test_report_validation_and_json():
    with pytest.raises(AdmissibilityError):
        AdmissibilityReport(
            t=1.0, space="Linf", lower=2.0, upper=1.0, route="r",
            lower_route="s", n_modes=1,
        )
    rep = AdmissibilityReport(
        t=math.inf, space="Linf", lower=0.5, upper=math.inf, route="none",
        lower_route="phase-search", n_modes=3,
    )
    data = rep.to_json()
    assert data["t"] == "inf" and data["upper"] == "inf"
    assert data["lower"] == 0.5


def test_factorization_identity():
    rng = np.random.default_rng(21)
    lam = -rng.uniform(0.2, 6.0, size=16) + 1j * rng.normal(0.0, 2.0, size=16)
    A = DiagonalGenerator(lam)
    x0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    for _ in range(10):
        t = float(rng.uniform(0.3, 4.0))
        u = random_signal(rng, t, int(rng.integers(2, 9)))
        out = factorization_check(A, x0, u)
        assert out["residual"] <= 1e-12
        assert out["t"] == t


def test_orlicz_adm_bound_single_mode():
    A = DiagonalGenerator([-1.0])
    psi = power_young(2.0, 0.5)  # y^2/2
    phi, C = orlicz_adm_bound(A, [1.0], psi)
    # exact value 1; the staircase envelope adds a hair of conservatism
    assert 1.0 <= C <= 1.01
    assert phi(2.0) == pytest.approx(8.0, rel=1e-14)  # x^4/2
    _, C0 = orlicz_adm_bound(A, [0.0], psi, n_verify=0)
    assert C0 == 0.0
    with pytest.raises(AdmissibilityError):
        orlicz_adm_bound(A, [1.0, 2.0], psi)


def test_orlicz_adm_bound_rejects_a_non_finite_x0_without_trials():
    A = DiagonalGenerator([-1.0, -2.0, -3.0])
    psi = power_young(2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(AdmissibilityError, match="finite"):
            orlicz_adm_bound(A, [1.0, bad, 0.25], psi, n_verify=0)


def test_aminus_x0_is_the_one_column_lambda_x0():
    """B = A_{-1} x0 and the column lambda x0 are one operator: every number
    agrees, except the kernel-L1 route, which needs x0 in the domain of A."""
    rng = np.random.default_rng(11)
    n = 12
    re = -np.sort(rng.uniform(0.5, 20.0, n))
    A = DiagonalGenerator(re + 1j * rng.uniform(-1.0, 1.0, n) * np.abs(re))
    x0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.arange(1, n + 1)
    rank_one = InputOperator.aminus_x0(x0)
    column = InputOperator.columns((A.eigenvalues * x0)[:, None])

    def same(a, b):
        assert abs(a - b) <= 1e-14 * abs(b), (a, b)

    for t in (0.05, 1.0):
        r1 = linfty_bounds(A, rank_one, t, seed=3)
        r2 = linfty_bounds(A, column, t, seed=3)
        for route in ("factorization", "hinf-multiplier"):
            same(r1.routes[route]["value"], r2.routes[route]["value"])
        same(r1.lower, r2.lower)
        assert math.isfinite(r2.routes["kernel-L1"]["value"])
        assert math.isinf(r1.routes["kernel-L1"]["value"])
        assert "outside the domain of A" in r1.routes["kernel-L1"]["reason"]
    for space in ("L2", "L1"):
        same(infinite_time_sup(A, rank_one, space).upper,
             infinite_time_sup(A, column, space).upper)
    for p in (1.0, 2.0, math.inf):
        w1, w2 = weiss_check(A, rank_one, p), weiss_check(A, column, p)
        same(w1.value, w2.value)
        same(w1.closed_form, w2.closed_form)
    u = random_signal(rng, 1.0, 6)
    one_channel = PiecewiseSignal(u.breakpoints, u.values[:, None])
    for signal in (u, one_channel):
        got = input_map(A, rank_one, signal).coefficients
        want = input_map(A, column, signal).coefficients
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def _bad_linfty_calls():
    A = DiagonalGenerator(LAMS)
    B = InputOperator.columns(np.eye(4)[:, :2])
    return {
        "infinite horizon": (lambda: linfty_bounds(A, B, math.inf), "infinite_time_sup"),
        "nan horizon": (lambda: linfty_bounds(A, B, math.nan), "finite and positive"),
        "zero horizon": (lambda: linfty_bounds(A, B, 0.0), "finite and positive"),
        "no pieces": (lambda: linfty_bounds(A, B, 1.0, n_pieces=0), "n_pieces"),
        "half pieces": (lambda: linfty_bounds(A, B, 1.0, n_pieces=2.5), "n_pieces"),
        "float pieces": (lambda: linfty_bounds(A, B, 1.0, n_pieces=8.0), "n_pieces"),
        "bool pieces": (lambda: linfty_bounds(A, B, 1.0, n_pieces=True), "n_pieces"),
        "no horizons": (
            lambda: infinite_time_sup(A, B, "Linf", horizons=[]), "at least one horizon"),
        "infinite sup horizon": (
            lambda: infinite_time_sup(A, B, "Linf", horizons=[0.5, math.inf]), "finite"),
        "infinite grid horizon": (
            lambda: zero_class_profile(A, B, [0.5, math.inf]), "finite"),
    }


@pytest.mark.parametrize("case", list(_bad_linfty_calls()))
def test_bad_linfty_arguments_are_named_errors(case):
    call, message = _bad_linfty_calls()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # named before numpy sees them
        with pytest.raises(AdmissibilityError, match=message):
            call()


def test_linfty_bounds_take_numpy_integer_pieces():
    A = DiagonalGenerator(LAMS)
    B = InputOperator.columns(np.eye(4)[:, :2])
    want = linfty_bounds(A, B, 1.0, n_pieces=8)
    assert linfty_bounds(A, B, 1.0, n_pieces=np.int64(8)) == want


def test_zero_class_profile_flags():
    A = DiagonalGenerator([-float(n) for n in range(1, 9)])
    B = InputOperator.columns(np.eye(8)[:, :1])
    reports, flags = zero_class_profile(A, B, [1e-3, 1e-2, 1e-1, 1.0])
    assert flags["zero_class_plausible"] and not flags["obstructed"]
    uppers = [r.upper for r in reports]
    assert uppers[0] <= 0.2 * uppers[-1]
    Af = DiagonalGenerator([-(4.0**n) for n in range(1, 9)])
    reports, flags = zero_class_profile(
        Af, InputOperator.aminus_full(), [4.0**-8, 4.0**-5, 4.0**-2, 1.0]
    )
    assert flags["obstructed"] and not flags["zero_class_plausible"]
    # the scale-matched mode pins every lower bound at 1 - 1/e or better
    assert reports[0].lower >= 1.0 - math.exp(-1.0) - 1e-12


def test_infinite_time_sup_l2_gram_vs_quadrature():
    A = DiagonalGenerator(LAMS)
    b = np.array([1.0, 0.4 + 0.2j, 0.4 - 0.2j, -0.3])
    B = InputOperator.columns(b)
    rep = infinite_time_sup(A, B, space="L2")
    assert rep.lower <= rep.upper <= rep.lower * (1.0 + 1e-12)
    assert math.isfinite(rep.upper)  # t = inf must not produce NaN
    # numerical Gram on a long window
    lam = A.eigenvalues
    s = np.linspace(0.0, 40.0, 400_001)
    ker = np.exp(np.multiply.outer(s, lam)) * b
    G = np.einsum("sn,sm->nm", ker.conj(), ker) * (s[1] - s[0])
    num = math.sqrt(float(np.max(np.linalg.eigvalsh(0.5 * (G + G.conj().T)))))
    assert rep.upper == pytest.approx(num, rel=1e-4)


def test_infinite_time_sup_l1_and_linf():
    A = DiagonalGenerator(LAMS)
    b = np.array([1.0, 0.4 + 0.2j, 0.4 - 0.2j, -0.3])
    B = InputOperator.columns(b)
    rep = infinite_time_sup(A, B, space="L1")
    # sup_s ||T(s) B|| is attained at s = 0 for the decaying diagonal
    assert rep.upper == pytest.approx(float(np.linalg.norm(b)), rel=1e-14)
    s_grid = np.linspace(0.0, 5.0, 2001)
    grid_val = max(
        float(np.linalg.norm(np.exp(A.eigenvalues * s) * b)) for s in s_grid
    )
    assert grid_val <= rep.upper * (1.0 + 1e-12)
    li = infinite_time_sup(A, B, space="Linf")
    assert li.lower <= li.upper < math.inf
    assert "kernel-L1" in li.routes
    with pytest.raises(AdmissibilityError):
        infinite_time_sup(A, B, space="L3")


def test_infinite_time_sup_per_column_pairs_are_valid():
    # the per-column uppers hold for every horizon, the lowers are attained
    A = DiagonalGenerator([-1.0, -1.5, -30.0])
    B = InputOperator.columns(np.eye(3)[:, :2])
    sup = infinite_time_sup(A, B, space="Linf")
    cols = sup.per_column
    assert cols["upper"] == [1.0, 1.0 / 1.5]  # ||A^{-1} b_j||: hinf at t = inf
    late = linfty_bounds(A, B, 40.0).per_column
    for lo, up, late_lo in zip(cols["lower"], cols["upper"], late["lower"]):
        assert lo <= up
        assert late_lo <= up + 1e-12
    horizons = [0.25, 1.0, 4.0]
    assert cols["lower"] == np.max(
        [linfty_bounds(A, B, t).per_column["lower"] for t in horizons], axis=0
    ).tolist()


def test_report_checks_every_per_column_pair():
    with pytest.raises(CertificateViolation, match="column 1"):
        AdmissibilityReport(
            t=1.0, space="Linf", lower=0.5, upper=1.0, route="r", lower_route="l",
            n_modes=2, per_column={"lower": [0.5, 0.9], "upper": [1.0, 0.8]},
        )


def test_aminus_full_probe_matches_expm1_at_tiny_t():
    # max_n |e^{lambda_n t} - 1| is what the constant probe attains
    mp = pytest.importorskip("mpmath")
    t = 1e-10
    for lams in ([-1.0, -2.0], [-1.0, -2.0 + 3.0j]):
        A = DiagonalGenerator(lams)
        rep = linfty_bounds(A, InputOperator.aminus_full(), t)
        assert rep.lower_route == "closed-form(probe)"
        with mp.workdps(40):
            exact = max(
                float(abs(mp.expm1(mp.mpc(lam.real, lam.imag) * t)))
                for lam in A.eigenvalues
            )
        assert abs(rep.lower - exact) <= 1e-15 * exact


def test_kernel_route_matches_mpmath_at_finite_t():
    # hs * (1 - e^{-delta t}) / delta, including delta t << 1
    mp = pytest.importorskip("mpmath")
    A = DiagonalGenerator([-0.5, -3.0 + 2.0j, -7.0])
    b = np.array([[1.0, 0.3j], [0.5 - 0.2j, 1.0], [0.25, -0.5]])
    B = InputOperator.columns(b)
    for t in (1e-6, 0.02, 3.0):
        got = linfty_bounds(A, B, t, restarts=1, iters=1).routes["kernel-L1"]["value"]
        with mp.workdps(40):
            hs = mp.sqrt(mp.fsum(mp.mpf(abs(x)) ** 2 for x in b.ravel()))
            delta = mp.mpf(A.delta)
            exact = float(-hs * mp.expm1(-delta * t) / delta)
        assert abs(got - exact) <= 1e-15 * exact


def test_results_do_not_depend_on_memory_layout():
    # a reversed signal holds a negative-stride view of its values; a signal
    # built from a contiguous copy of the same values must give the same bits
    rng = np.random.default_rng(31)
    lams = -np.sort(rng.uniform(0.5, 40.0, 48)) + 1j * rng.uniform(-5.0, 5.0, 48)
    A = DiagonalGenerator(lams)
    B = InputOperator.columns(rng.normal(size=48) + 0j)
    x0 = SpectralVector(rng.normal(size=48) + 0j)
    rev = random_signal(rng, 2.0, 7).reversed_signal()
    same = PiecewiseSignal(rev.breakpoints.copy(), np.ascontiguousarray(rev.values))
    np.testing.assert_array_equal(mode_integrals(lams, rev), mode_integrals(lams, same))
    for t in (1.3, 2.0):
        np.testing.assert_array_equal(
            trajectory(A, B, x0, rev, t).coefficients,
            trajectory(A, B, x0, same, t).coefficients,
        )
