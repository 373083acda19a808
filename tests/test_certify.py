"""Resolvent tests, square-function constants, divergence run, ISS bundles."""

import math
import warnings

import numpy as np
import pytest

from admlab.admissibility import (
    CertificateViolation,
    InputOperator,
    _upper_routes,
    infinite_time_sup,
    input_map,
)
from admlab import certify
from admlab.certify import (
    CertifyError,
    _envelope_trials,
    boundedness_probe,
    counterexample_run,
    iiss_certificate,
    iss_certificate,
    shift_demo,
    sqfct_constants,
    weiss_check,
)
from admlab.admissibility import l2_adm_constant
from admlab.orlicz import SampledFunction, Segment, YoungFunction, power_young
from admlab.spectral import DiagonalGenerator
from dense_counterexample import counterexample_input

S1 = 0.05695440411119535  # (e^{-1/2} - e^{-1})^2


def test_weiss_single_mode_closed_forms():
    A = DiagonalGenerator([-1.0])
    B = InputOperator.aminus_x0([1.0])
    for p, expect in ((math.inf, 1.0), (2.0, 2.0**-0.5), (1.0, 1.0)):
        rep = weiss_check(A, B, p=p)
        assert rep.closed_form == pytest.approx(expect, rel=1e-12)
        assert rep.value == pytest.approx(rep.closed_form, rel=1e-6)
        assert rep.skipped == 0
        assert rep.kind == "aminus_x0"


def test_weiss_symbol_ray_and_dyadic():
    ray = DiagonalGenerator.from_ray(1.0, 1.0, math.pi / 4, 8)
    rep = weiss_check(ray, InputOperator.aminus_full(), p=math.inf)
    assert rep.kind == "aminus_full"
    assert rep.closed_form == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert rep.value == pytest.approx(rep.closed_form, rel=1e-6)
    k = 2.0
    gam = [-(2.0**m) * (1 + 1j * k) for m in range(30)]
    A = DiagonalGenerator(gam)
    rep = weiss_check(A, InputOperator.aminus_full(), p=math.inf)
    assert rep.closed_form == pytest.approx(math.sqrt(1 + k * k), rel=1e-15)
    assert rep.value == pytest.approx(rep.closed_form, rel=1e-6)


def test_weiss_candidate_points_reach_tiny_modes():
    # a bare geometric grid bottoms out at Re = 1e-6; the per-mode candidate
    # points are what let a mode at -1e-8 show its full resolvent size
    A = DiagonalGenerator([-1e-8])
    rep = weiss_check(A, InputOperator.aminus_x0([1.0]), p=math.inf)
    assert rep.closed_form == pytest.approx(1.0, rel=1e-12)
    assert rep.value >= 0.999
    assert rep.n_candidates > 0


WEISS_LAM = np.array([-1e-20 + 1j, -1.0, -2.0 + 3j, -0.5 - 0.7j])
WEISS_W = np.array([1.0, 0.5, 2.0, 1.5])
# the input rows of the finite-rank cases; row 0, at the mode -1e-20 + i,
# carries about 1e-12, so that mode's own supremum |b_0| / sqrt(2e-20) stays
# below the best grid point and ``value`` is the grid's, not the floor's
WEISS_X0 = np.array([1e-12, 0.5j, -0.3, 0.2 + 0.1j])
WEISS_COLS = np.array([[1e-12, 0.5e-12, -2e-12j], [0.2j, 1, 0.1], [0.3, -0.4, 1 + 1j],
                       [1, 1j, 0.5]])


@pytest.mark.parametrize("B, B_eff", [
    # B_eff maps an orthonormal input basis to mode coefficients
    (InputOperator.aminus_full(), np.diag(WEISS_LAM / np.sqrt(WEISS_W))),
    (InputOperator.aminus_x0(WEISS_X0), (WEISS_LAM * WEISS_X0)[:, None]),
    (InputOperator.columns(WEISS_COLS[:, :2]), WEISS_COLS[:, :2]),
    (InputOperator.columns(WEISS_COLS), WEISS_COLS),
], ids=["aminus_full", "aminus_x0", "columns", "three_columns"])
def test_weiss_skips_a_point_on_the_spectrum_and_matches_per_point_norms(B, B_eff):
    # At p = 2 the candidate for lambda = -1e-20 + i is 1e-20 + i, 2e-20 away
    # from the spectrum: the guard must drop it and only it.  The diagonal
    # form's supremum is the closed form max_n |lambda_n| / sqrt(2 |Re lambda_n|),
    # attained at l = |Re lambda_n| + i Im lambda_n, with no grid.
    A = DiagonalGenerator(WEISS_LAM, weights=WEISS_W)
    rep = weiss_check(A, B, 2)
    if B.kind == "aminus_full":
        assert rep.route == "closed-form" and rep.value == rep.closed_form
        assert rep.value == np.max(np.abs(WEISS_LAM) / np.sqrt(2.0 * np.abs(WEISS_LAM.real)))
        return
    assert rep.skipped == 1
    re = np.geomspace(1e-6, 1e6, 25)
    im_half = np.geomspace(1e-6, 1e6, 25)
    im = np.concatenate([-im_half[::-1], [0.0], im_half])
    pts = np.concatenate([(re[:, None] + 1j * im[None, :]).ravel(),
                          -WEISS_LAM.real + 1j * WEISS_LAM.imag])
    sw = np.sqrt(WEISS_W)[:, None]
    best, skipped = 0.0, 0
    for mu in pts:
        if np.min(np.abs(mu - WEISS_LAM)) <= 1e-12 * (1.0 + abs(mu)):
            skipped += 1
            continue
        op = sw * B_eff / (mu - WEISS_LAM)[:, None]
        best = max(best, math.sqrt(2.0 * mu.real) * np.linalg.norm(op, 2))
    assert skipped == 1
    assert best > rep.closed_form
    assert rep.value == pytest.approx(best, rel=1e-13)


def test_sqfct_constants():
    rep = sqfct_constants(DiagonalGenerator([-1.0]))
    assert rep.k_lower == pytest.approx(0.5, rel=1e-12)
    assert rep.K_upper == pytest.approx(0.5, rel=1e-12)
    assert rep.quad_max_rel_err <= 1e-8
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        ray = DiagonalGenerator.from_ray(1.0, 1.0, theta, 4)
        rep = sqfct_constants(ray)
        expect = 1.0 / (2.0 * math.cos(theta))
        assert rep.k_lower == pytest.approx(expect, rel=1e-12)
        assert rep.K_upper == pytest.approx(expect, rel=1e-12)
    mixed = DiagonalGenerator([-1.0, -1.0 + 1.0j, -1.0 - 1.0j])
    rep = sqfct_constants(mixed)
    assert rep.k_lower == pytest.approx(0.5, rel=1e-12)
    assert rep.K_upper == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    # K is the square of the L2 admissibility constant, by construction
    assert rep.K_upper == pytest.approx(l2_adm_constant(mixed) ** 2, rel=1e-12)
    # the integral converges only with the decaying exponential convention
    assert math.isfinite(rep.convention_evidence["exp_plus_z_mode0"])
    assert math.isinf(rep.convention_evidence["exp_minus_z_mode0"])
    assert rep.phi0


def test_counterexample_matches_dense_evaluation():
    M = 48
    run = counterexample_run(0.0, M)
    gammas = [-(2.0 ** (m - 1)) + 0.0j for m in range(1, M + 1)]
    A = DiagonalGenerator(gammas)
    u = counterexample_input(gammas)
    out = input_map(A, InputOperator.aminus_full(), u)
    dense = float(np.sum(np.abs(out.coefficients) ** 2))
    sm = run["rows"]["S_m"]
    assert sm[-1] == pytest.approx(dense, rel=1e-12)
    assert sm[-1] == pytest.approx(M * S1, rel=1e-12)
    assert run["s1_real"] == S1
    # each unit-sup input step raises the squared norm by the same sigma, so
    # the partial sums diverge linearly while every column stays harmless
    assert all(b > a for a, b in zip(sm, sm[1:]))
    assert run["per_column_upper"] == 1.0
    assert math.isfinite(run["weiss"]["value"])


def test_counterexample_complex_and_checkpoints():
    run = counterexample_run(2.0, 20, checkpoints=[1, 10, 20])
    assert run["per_column_upper"] == pytest.approx(math.sqrt(5.0), rel=1e-15)
    sigma = run["sigma"]
    for m, val in run["checkpoints"].items():
        assert val == pytest.approx(m * sigma, rel=1e-12)
    head = run["intervals_head"]
    assert tuple(head[0][1:]) == (0.5, 1.0)
    with pytest.raises(CertifyError):
        counterexample_run(0.0, 0)


@pytest.mark.parametrize("checkpoint", [1000, 0])
def test_counterexample_rejects_a_checkpoint_outside_the_modes(checkpoint):
    # S_1000 of a 100-mode run is not the partial sum S_100
    with pytest.raises(CertifyError, match=rf"checkpoint {checkpoint} .* M = 100"):
        counterexample_run(0.5, 100, [10, checkpoint])


@pytest.mark.parametrize("k", [0.0, 0.5])
@pytest.mark.parametrize("M", [4096, 4097, 10**5])
def test_counterexample_rows_match_a_full_array_oracle(M, k):
    run = counterexample_run(k, M)
    sigma = run["sigma"]
    summands = np.full(M, sigma)
    oracle = np.cumsum(summands)
    ms = run["rows"]["m"]
    assert np.array_equal(run["rows"]["S_m"], oracle[ms - 1])
    assert np.array_equal(run["rows"]["theory"], ms * sigma)
    for m, value in run["checkpoints"].items():
        assert value == np.sum(summands[:m])
    if M <= certify._DIVERGENCE_ROWS:
        assert np.array_equal(ms, np.arange(1, M + 1))
    else:
        assert len(ms) <= certify._DIVERGENCE_ROWS + len(run["checkpoints"]) + 1
    assert np.all(np.diff(ms) > 0)
    assert set(run["checkpoints"]) | {1, M} <= set(ms.tolist())


@pytest.mark.parametrize("k_bound", [math.inf, -math.inf, math.nan])
def test_counterexample_rejects_a_non_finite_k_bound(k_bound):
    with pytest.raises(CertifyError, match="k_bound must be finite"):
        counterexample_run(k_bound, 100)


@pytest.mark.parametrize("M", [True, 2.5, math.inf, "100"])
def test_counterexample_rejects_a_non_integral_mode_count(M):
    with pytest.raises(CertifyError, match="M must be a whole number"):
        counterexample_run(0.5, M)


@pytest.mark.parametrize("checkpoint", [True, 2.5, math.nan, np.bool_(True)])
def test_counterexample_rejects_a_non_integral_checkpoint(checkpoint):
    with pytest.raises(CertifyError, match="checkpoint must be a whole number"):
        counterexample_run(0.5, 100, [10, checkpoint])


def test_counterexample_takes_integral_floats_and_numpy_ints():
    run = counterexample_run(0.5, 100.0, [np.int64(10), 20.0])
    assert run["M"] == 100 and type(run["M"]) is int
    assert run["checkpoints"] == counterexample_run(0.5, 100, [10, 20])["checkpoints"]
    assert all(type(m) is int for m in run["checkpoints"])


def test_iss_rejects_a_negative_gain_slope():
    A = DiagonalGenerator([-1.0, -2.0])
    B = InputOperator.aminus_x0([1.0, 0.5])
    with pytest.raises(CertifyError):
        iss_certificate(A, B, n_trials=1, adm_bound_override=-1.0)


BAD_ENVELOPE_ARGS = {
    "no sample time": ({"n_times": 0}, "one sample time"),
    "negative sample count": ({"n_times": -3}, "one sample time"),
    "no trial": ({"n_trials": 0}, "one trial"),
    "negative trial count": ({"n_trials": -1}, "one trial"),
    "fractional trial count": ({"n_trials": 2.5}, "n_trials must be a whole number"),
    "boolean trial count": ({"n_trials": True}, "n_trials must be a whole number"),
    "infinite horizon": ({"horizon": math.inf}, "horizon must be finite and positive"),
    "nan horizon": ({"horizon": math.nan}, "horizon must be finite and positive"),
    "zero horizon": ({"horizon": 0.0}, "horizon must be finite and positive"),
}


@pytest.mark.parametrize("certificate", ["iss", "iiss"])
@pytest.mark.parametrize("case", sorted(BAD_ENVELOPE_ARGS))
def test_envelope_certificates_name_bad_arguments(certificate, case, monkeypatch):
    # the arguments are checked before any bound or trial is computed
    kwargs, message = BAD_ENVELOPE_ARGS[case]
    monkeypatch.setattr(certify, "_envelope_trials", None)
    monkeypatch.setattr(certify, "_uniform_upper", None)
    monkeypatch.setattr(certify, "orlicz_adm_bound", None)
    A = DiagonalGenerator([-1.0, -2.0])
    with pytest.raises(CertifyError, match=message):
        if certificate == "iss":
            iss_certificate(A, InputOperator.aminus_x0([1.0, 0.5]), **kwargs)
        else:
            iiss_certificate(A, [1.0, 0.5], power_young(2.0, 0.5), **kwargs)


def test_envelope_certificates_take_integral_floats():
    A = DiagonalGenerator([-1.0, -2.0])
    B = InputOperator.aminus_x0([1.0, 0.5])
    out = iss_certificate(A, B, n_trials=3.0, n_times=2.0, seed=1)
    assert out["n_trials"] == 3 and type(out["n_trials"]) is int
    assert out == iss_certificate(A, B, n_trials=3, n_times=2, seed=1)


def test_iss_certificate_clean_run():
    A = DiagonalGenerator([-float(n) for n in range(1, 9)])
    x0 = np.zeros(8, dtype=complex)
    x0[0] = 1.0
    out = iss_certificate(A, InputOperator.aminus_x0(x0), n_trials=30, seed=3)
    assert out["violations"] == []
    assert out["max_ratio"] <= 1.0 + 1e-12
    assert out["bundle"]["M"] >= 1.0
    assert out["bundle"]["omega"] == pytest.approx(1.0)
    assert math.isfinite(out["bundle"]["mu_slope"])


def test_envelope_counts_a_state_outside_x_as_a_violation(monkeypatch):
    # |b| = 1e300 makes every forced state's norm overflow: input_map tags it
    # Xm1, and the envelope must count it as lhs = inf without measuring it.
    A = DiagonalGenerator([-1.0, -2.0])
    B = InputOperator.columns(np.array([[1e300], [0.5]]))
    measured_rows = []
    norms = certify._weighted_norms

    def weighted_norms(factor, rows):
        measured_rows.append(len(rows))
        return norms(factor, rows)

    monkeypatch.setattr(certify, "_weighted_norms", weighted_norms)
    with pytest.warns(UserWarning, match="left X numerically") as caught:
        max_ratio, violations = _envelope_trials(
            A, B, lambda u, times: lambda j: 1.0, n_trials=2, horizon=1.0, seed=0,
            n_times=3)
    # the warning names the envelope, the caller of the stepper
    assert {w.filename for w in caught} == {certify.__file__}
    assert sum(measured_rows) == 0, "took the norm of a state outside X"
    assert max_ratio == math.inf
    assert len(violations) == 6
    assert all(v["lhs"] == math.inf for v in violations)
    # the guard watches the pass that measures states inside X
    B = InputOperator.columns(np.array([[1.0], [0.5]]))
    _envelope_trials(A, B, lambda u, times: lambda j: 1.0, n_trials=2, horizon=1.0,
                     seed=0, n_times=3)
    assert sum(measured_rows) == 6


def test_iss_certificate_undersized_gain_raises():
    A = DiagonalGenerator([-float(n) for n in range(1, 9)])
    x0 = np.zeros(8, dtype=complex)
    x0[0] = 1.0
    B = InputOperator.aminus_x0(x0)
    with pytest.raises(CertificateViolation) as err:
        iss_certificate(A, B, n_trials=20, seed=3, adm_bound_override=1e-5)
    assert err.value.dump["violations"]
    out = iss_certificate(
        A, B, n_trials=20, seed=3, adm_bound_override=1e-5,
        raise_on_violation=False,
    )
    assert len(out["violations"]) > 0
    with pytest.raises(CertifyError):
        iss_certificate(A, InputOperator.aminus_full(), n_trials=5)


@pytest.mark.parametrize("kind", ["one column", "three columns", "aminus_x0"])
def test_iss_slope_is_the_infinite_time_route_table(kind):
    rng = np.random.default_rng(31)
    lam = -np.sort(rng.uniform(0.5, 20.0, 12)) + 1j * rng.uniform(-3.0, 3.0, 12)
    A = DiagonalGenerator(lam)
    k = np.arange(1, 13)
    if kind == "aminus_x0":
        B = InputOperator.aminus_x0((rng.normal(size=12) + 1j * rng.normal(size=12)) / k)
    else:
        m = 1 if kind == "one column" else 3
        B = InputOperator.columns(rng.normal(size=(12, m)) / k[:, None] ** 2)
    sup = infinite_time_sup(A, B, "Linf")
    routes, _ = _upper_routes(A, B).at(math.inf)
    assert sup.routes == routes
    out = iss_certificate(A, B, n_trials=1, seed=2)
    assert out["bundle"]["mu_slope"] == sup.upper


def test_iiss_certificate():
    A = DiagonalGenerator([-float(n) for n in range(1, 7)])
    x0 = np.zeros(6, dtype=complex)
    x0[0] = 1.0
    out = iiss_certificate(A, x0, power_young(2.0, 0.5), n_trials=10, seed=5)
    assert out["violations"] == []
    assert out["bundle"]["C"] > 0.0
    assert "theta_note" in out and out["theta_note"]


def test_shift_demo_sampled_profiles():
    phi = power_young(2.0, 1.0)  # x^2
    flat = shift_demo(SampledFunction([0.0, 1.0], [1.0]), phi)
    assert flat["l1"] == 1.0
    assert flat["psi_l1_norm"] == 1.0
    assert flat["l1_constant"] == 1.0
    assert flat["orlicz_class_member"]
    assert flat["modular"] == 1.0
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        edges = np.concatenate([[0.0], np.sort(rng.random(k - 1)), [1.0]])
        edges = np.unique(edges)
        vals = rng.uniform(0.0, 3.0, size=len(edges) - 1)
        out = shift_demo(SampledFunction(edges, vals), phi)
        l1 = float(np.dot(vals, np.diff(edges)))
        assert out["psi_l1_norm"] == l1  # observation map preserves L1 exactly
        assert out["l1"] == l1
    with pytest.raises(CertifyError):
        shift_demo(SampledFunction([0.0, 0.5], [1.0], tail_rate=1.0), phi)
    # a bounded profile is in every Orlicz class: past double range it is
    # named, not reported as divergent
    with pytest.raises(CertifyError, match="samples profile is finite but overflows"):
        shift_demo(SampledFunction([0.0, 1.0], [1e200]), phi)


def test_shift_demo_power_profiles():
    phi = power_young(2.0, 1.0)
    # f(s) = s^{-1/2}/2 against x^2: the modular diverges like the harmonic
    # series, passing the 1e6 threshold after ceil(1e6/(ln 2 / 4)) levels
    out = shift_demo({"kind": "power", "coeff": 0.5, "exponent": -0.5}, phi)
    assert out["diverged"] and not out["orlicz_class_member"]
    assert out["escalation_levels"] == 5770781
    assert out["l1"] == 1.0
    grow = shift_demo({"kind": "power", "coeff": 1.0, "exponent": 0.5}, phi)
    assert not grow["diverged"]
    assert grow["modular"] == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(CertifyError):
        shift_demo({"kind": "power", "coeff": 1.0, "exponent": -1.0}, phi)
    with pytest.raises(CertifyError):
        shift_demo({"kind": "spline"}, phi)


def test_shift_demo_overflowing_level_mass_needs_one_level():
    # c^2 = 1e600 overflows, so one dyadic level already passes the threshold
    # (remaining / inf reads 0 levels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = shift_demo({"kind": "power", "coeff": 1e300, "exponent": -0.5},
                         power_young(2.0))
    assert out["diverged"] and out["levels_scanned"] == 0
    assert out["escalation_levels"] == 1


def test_shift_demo_multi_segment_crossing():
    phi = YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(3.0, "power", 3.0, 2.0)]
    )
    out = shift_demo({"kind": "power", "coeff": 2.5, "exponent": -0.25}, phi)
    assert not out["diverged"]
    assert out["levels_scanned"] > 0
    # exact split: Phi = x^2 below 3 and x^3 - 18 above, crossing at
    # s = (5/6)^4, which integrates to 425/9
    assert out["modular"] == pytest.approx(425.0 / 9.0, rel=1e-12)
    s = np.geomspace(1e-12, 1.0, 200_001)
    riem = float(np.trapezoid(phi(2.5 * s**-0.25), s))
    tail = 62.5 * 1e-3  # the s^{-3/4} mass the grid floor cuts off
    assert out["modular"] == pytest.approx(riem + tail, rel=1e-4)


def test_shift_demo_power_scan_is_finite_without_warnings():
    # the benchmark's power/constant/power Phi over the scan of 30 c by 50
    # log-spaced a in [-0.3, -1e-5]: for a near 0 the crossing of the last
    # breakpoint lies far below 2^-1074, and the modular stays finite
    phi = YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(1.0, "const", 3.0, 0.0),
         Segment(2.0, "power", 1.5, 1.0)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in np.linspace(0.3, 1.5, 30).tolist():
            for a in (-np.geomspace(0.3, 1e-5, 50)).tolist():
                out = shift_demo({"kind": "power", "coeff": c, "exponent": a}, phi)
                assert not out["diverged"] and math.isfinite(out["modular"]), (c, a)


def test_boundedness_probe():
    rule = {"kind": "ray", "base": 1.0, "exponent": 2.0, "angle": 0.0}
    out = boundedness_probe(rule, Ns=[16, 64, 256], t_grid=[1e-6, 1e-3, 1.0])
    floor = 1.0 - math.exp(-1.0)
    for val in out["matched_scale_values"].values():
        assert val == pytest.approx(floor, rel=1e-12)
    assert out["uniform_floor"]
    assert out["zero_class_degrades"]
    assert all(row["value"] <= out["bound"] for row in out["rows"])
    # the small-t rows follow the Taylor slope |lambda_N| t
    small = [r for r in out["rows"] if r["t"] == 1e-6 and r["N"] == 16]
    assert small[0]["value"] == pytest.approx(256.0 * 1e-6, rel=1e-3)
    with pytest.raises(CertifyError):
        boundedness_probe({"kind": "explicit"}, [4], [0.1])
