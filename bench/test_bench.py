"""Tests of the benchmark itself: oracles, job lists, tracer, metric names.

Each oracle must agree with admlab where admlab's method is correct and must
reject a deliberately wrong value.  Run from the repository root with
``PYTHONPATH=src python3 -m pytest bench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layertrace
import oracles as orc
import worker
import workloads as wl
from admlab import admissibility as ad
from admlab import certify as ce
from admlab import orlicz as oz
from admlab import signals as sg
from admlab import spectral as sp

ROOT = Path(__file__).resolve().parent.parent


def _system(n, kind, m=1, seed=0):
    rng = np.random.default_rng(seed)
    lam = wl._spectrum(rng, n)
    k = np.arange(1, n + 1)
    if kind == "aminus_x0":
        B = ad.InputOperator.aminus_x0(wl._cnormal(rng, n) / k**1.5)
    else:
        B = ad.InputOperator.columns(wl._cnormal(rng, (n, m)) / k[:, None])
    return lam, sp.DiagonalGenerator(lam), B


@pytest.mark.parametrize("kind,m", [("aminus_x0", 1), ("columns", 2)])
def test_stepper_matches_trajectory_and_rejects_a_dropped_piece(kind, m):
    lam, A, B = _system(48, kind, m)
    rng = np.random.default_rng(1)
    x0 = wl._cnormal(rng, 48) / np.arange(1, 49)
    bp = wl._breakpoints(rng, 4.0, 8)
    vals = wl._unit_disk(rng, 8 if m == 1 else (8, m))
    u = sg.PiecewiseSignal(bp, vals)
    times = [0.7, 2.0, 4.0]
    got = [ad.trajectory(A, B, sp.SpectralVector(x0), u, t).coefficients for t in times]
    want = orc.step_states(lam, wl._cols(B, lam), x0, bp, vals, times)
    assert orc.check_states(got, want) is None
    dropped = sg.PiecewiseSignal(np.delete(bp, 3), np.delete(vals, 3, axis=0))
    bad = [ad.trajectory(A, B, sp.SpectralVector(x0), dropped, t).coefficients for t in times]
    assert orc.check_states(bad, want) is not None


def test_l2_oracle_matches_one_column_and_rejects_the_column_sum():
    for kind in ("aminus_x0", "columns"):
        lam, A, B = _system(40, kind)
        rep = ad.infinite_time_sup(A, B, "L2")
        assert orc.check_close("L2", rep.upper, orc.l2_sup(lam, np.ones(40), wl._cols(B, lam)),
                               1e-9) is None
    lam, A, B = _system(40, "columns", 3)
    cols = wl._cols(B, lam)
    right = orc.l2_sup(lam, np.ones(40), cols)
    column_sum = math.sqrt(sum(orc.l2_sup(lam, np.ones(40), cols[:, [j]]) ** 2 for j in range(3)))
    assert column_sum > right * (1.0 + 1e-6)
    assert orc.check_close("L2", column_sum, right, 1e-9) is not None


def test_l1_oracle_matches():
    lam, A, B = _system(30, "columns", 3)
    rep = ad.infinite_time_sup(A, B, "L1")
    want = orc.l1_norm(np.ones(30), wl._cols(B, lam))
    assert orc.check_close("L1", rep.upper, want, 1e-12) is None
    assert orc.check_close("L1", rep.upper * (1 + 1e-9), want, 1e-12) is not None


def test_constant_input_floor_holds_and_rejects_a_smaller_lower_bound():
    for kind in ("aminus_x0", "columns"):
        lam, A, B = _system(64, kind, 2)
        r = ad.linfty_bounds(A, B, 1.0, seed=3)
        floor = orc.const_input_value(lam, np.ones(64), wl._cols(B, lam), 1.0)
        assert orc.check_lower("lower", r.lower, floor) is None
        assert orc.check_lower("lower", 0.99 * floor, floor) is not None
    lam, A, _ = _system(64, "aminus_x0")
    r = ad.linfty_bounds(A, ad.InputOperator.aminus_full(), 0.5)
    floor = orc.const_input_value(lam, None, None, 0.5, full=True)
    assert orc.check_lower("lower", r.lower, floor) is None
    assert orc.check_lower("lower", 0.99 * floor, floor) is not None


def _profile(K, tail):
    rng = np.random.default_rng(K)
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, K))])
    vals = rng.uniform(0.0, 3.0, K)
    rate = 0.8 if tail else None
    return edges, vals, rate


@pytest.mark.parametrize("tail", [False, True])
def test_power_luxemburg_closed_form(tail):
    edges, vals, rate = _profile(16, tail)
    k = oz.luxemburg_norm(oz.power_young(*wl.POWER), oz.SampledFunction(edges, vals, rate))
    want = orc.power_luxemburg(wl.POWER[1], wl.POWER[0], edges, vals, rate)
    assert orc.check_close("norm", k, want, 1e-9) is None
    assert orc.check_close("norm", k * (1 + 1e-6), want, 1e-9) is not None


@pytest.mark.parametrize("tail", [False, True])
def test_bracket_accepts_the_norm_and_rejects_neighbours(tail):
    edges, vals, rate = _profile(16, tail)
    phi = wl._young(oz, "segments")
    k = oz.luxemburg_norm(phi, oz.SampledFunction(edges, vals, rate))
    segs = list(wl.SEGMENTS)
    assert orc.check_bracket(segs, edges, vals, rate, k) is None
    assert orc.check_bracket(segs, edges, vals, rate, k * (1 + 1e-6)) is not None
    assert orc.check_bracket(segs, edges, vals, rate, k * (1 - 1e-6)) is not None
    if not tail:
        assert orc.check_close("own norm", orc.own_luxemburg(segs, edges, vals), k, 1e-9) is None


def test_young_eval_matches_the_program():
    phi = wl._young(oz, "segments")
    xs = np.array([0.0, 0.3, 1.0, 1.7, 2.0, 5.5])
    assert np.allclose(orc.young_eval(list(wl.SEGMENTS), xs), phi(xs), rtol=1e-14, atol=0)


def test_shift_modular_quadrature_and_closed_form():
    phi = wl._young(oz, "segments")
    for c, a in ((1.3, -0.29), (0.7, 0.4)):
        res = ce.shift_demo({"kind": "power", "coeff": c, "exponent": a}, phi)
        want = orc.power_profile_modular(list(wl.SEGMENTS), c, a)
        assert orc.check_close("modular", res["modular"], want, 1e-9) is None
        assert orc.check_close("modular", res["modular"] * (1 + 1e-7), want, 1e-9) is not None


def test_counterexample_sigma_and_divergence():
    for k in (0.0, 0.5):
        res = ce.counterexample_run(k, 500)
        sigma = orc.counterexample_sigma(k)
        assert orc.check_close("sigma", res["sigma"], sigma, 1e-13) is None
        assert orc.check_close("S_M", res["rows"]["S_m"][-1], 500 * sigma, 1e-9) is None
        assert orc.check_close("S_M", res["rows"]["S_m"][-2], 500 * sigma, 1e-9) is not None
    assert orc.check_close("sigma", orc.counterexample_sigma(0.0), orc.counterexample_sigma(0.5),
                           1e-9) is not None


def test_probe_floor_on_the_real_axis_and_oblique():
    assert orc.probe_floor(0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    for angle in (0.0, 0.7):
        rule = {"kind": "ray", "base": -1.5, "exponent": 1.0, "angle": angle, "count": 1}
        res = ce.boundedness_probe(rule, [16, 256], [0.01])
        for value in res["matched_scale_values"].values():
            assert orc.check_close("floor", value, orc.probe_floor(angle), 1e-12) is None
            assert orc.check_close("floor", value * (1 + 1e-9), orc.probe_floor(angle),
                                   1e-12) is not None


def test_sqfct_per_mode_closed_form():
    lam, A, _ = _system(50, "aminus_x0")
    rep = ce.sqfct_constants(A)
    per = orc.sqfct_per_mode(lam)
    assert orc.check_close("k", rep.k_lower, min(per), 1e-12) is None
    assert orc.check_close("K", rep.K_upper, max(per), 1e-12) is None
    assert orc.check_close("K", rep.K_upper, 2 * max(per), 1e-12) is not None


@pytest.mark.parametrize("kind", ["aminus_x0", "columns", "aminus_full"])
@pytest.mark.parametrize("p", [math.inf, 2.0])
def test_weiss_floor_and_upper(kind, p):
    lam, A, B = _system(60, "columns" if kind == "columns" else "aminus_x0")
    if kind == "aminus_full":
        B = ad.InputOperator.aminus_full()
    rep = ce.weiss_check(A, B, p)
    full = kind == "aminus_full"
    cols = None if full else wl._cols(B, lam)
    assert wl.check_weiss(lam, cols, p, rep.closed_form, rep.value) is None
    rows = orc.weiss_rows(lam, np.ones(60), cols, full)
    floor, upper = orc.weiss_bounds(lam, rows, p, full)
    for wrong in (1.01 * upper, 0.99 * floor):
        assert wl.check_weiss(lam, cols, p, rep.closed_form, wrong) is not None


def test_certificate_check():
    lam, A, B = _system(32, "aminus_x0")
    res = ce.iss_certificate(A, B, n_trials=3, seed=5)
    assert orc.check_certificate(res, 3) is None
    assert orc.check_certificate(dict(res, max_ratio=1.2), 3) is not None
    assert orc.check_certificate(dict(res, violations=[{"trial": 0}]), 3) is not None
    assert orc.check_certificate(res, 4) is not None


@pytest.mark.parametrize("name", ["envelope", "orlicz", "bounds", "cli"])
def test_job_list_is_identical_for_a_seed(name, tmp_path):
    def digest(seed, where):
        jobs = wl.build(name, seed, where)
        if name == "cli":
            return [(j.kind, j.label) for j in jobs], sorted(
                p.read_bytes() for p in (where / "scenarios").iterdir())
        return [(j.kind, j.label, wl.fingerprint(j.call.__defaults__)) for j in jobs]

    first = digest(7, tmp_path / "a")
    assert first == digest(7, tmp_path / "b")
    assert first != digest(8, tmp_path / "c")


def _run(jobs, tamper=None):
    """A worker run in short: warm-up, one scored round, then the oracle
    checks; ``tamper`` may replace the warm-up outputs before the checks."""
    ledger = worker.Ledger(jobs, worker.run_round(jobs)[2])
    ledger.score(worker.run_round(jobs)[2])
    if tamper is not None:
        ledger.reference = [tamper(ref) for ref in ledger.reference]
    ledger.check()
    return ledger


def test_three_column_l2_job_fails_only_by_its_known_fault():
    job = next(j for j in wl.build("bounds", 3, None) if j.label.endswith("(fixed input)"))
    rep = job.call()
    assert isinstance(job.check(rep), wl.Known)
    A3, B3 = wl._fixed_three_columns(ad, sp)
    right = orc.l2_sup(A3.eigenvalues, np.ones(A3.n_modes), B3.data)
    assert job.check(type(rep)(**{**vars(rep), "lower": right, "upper": right})) is None
    wrong = 1.01 * rep.upper
    verdict = job.check(type(rep)(**{**vars(rep), "lower": wrong, "upper": wrong}))
    assert verdict is not None and not isinstance(verdict, wl.Known)
    ledger = _run([job])
    assert (ledger.correct, ledger.failed, ledger.attempted) == (True, 1, 1)


def _counterexample_jobs(tmp_path):
    return [j for j in wl.build("cli", 5, tmp_path) if j.kind == "counterexample"][:1]


def test_counterexample_rerun_is_excused_but_a_wrong_sum_is_not(tmp_path):
    ledger = _run(_counterexample_jobs(tmp_path))
    assert (ledger.correct, ledger.failed, ledger.attempted) == (True, 1, 1)
    assert isinstance(ledger.verdicts[0], wl.Known)

    def wrong_sum(ref):
        code, files = ref
        report = json.loads(files["counterexample.report.json"])
        report["results"]["S_final"] *= 1.001
        return code, dict(files, **{"counterexample.report.json": json.dumps(report).encode()})

    ledger = _run(_counterexample_jobs(tmp_path / "b"), tamper=wrong_sum)
    assert not ledger.correct and ledger.failed == 1


def test_counterexample_rerun_differing_beyond_runtime_is_not_excused(tmp_path):
    job = _counterexample_jobs(tmp_path)[0]
    ref = job.collect(job.call())
    out = job.collect(job.call())
    assert isinstance(job.rerun(ref, out), wl.Known)
    code, files = out
    changed = (code, dict(files, **{"divergence.csv": files["divergence.csv"] + b"1,2\n"}))
    verdict = job.rerun(ref, changed)
    assert verdict is not None and not isinstance(verdict, wl.Known)


def test_a_raising_job_is_never_excused():
    def boom():
        raise ValueError("boom")

    ledger = _run([wl.Job("x", "raises", call=boom, check=lambda v: wl.Known("never"))])
    assert not ledger.correct and ledger.failed == 1


def test_tracer_counts_self_time_and_restores():
    tracer = layertrace.Tracer()
    original = sg.mode_integrals
    tracer.install()
    try:
        lam, A, B = _system(16, "aminus_x0")
        u = sg.PiecewiseSignal([0.0, 0.5, 1.0], [1.0, -1.0])
        ad.trajectory(A, B, sp.SpectralVector(np.zeros(16, complex)), u, 1.0)
    finally:
        tracer.uninstall()
    assert sg.mode_integrals is original and ad.mode_integrals is original
    traj = tracer.stats[("admissibility", "trajectory")]
    inner = tracer.stats[("signals", "mode_integrals")]
    assert traj[0] == 1 and inner[0] == 1
    assert tracer.pairs[(("admissibility", "input_map"), ("signals", "mode_integrals"))] == 1
    assert 0.0 <= traj[2] < traj[1]


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(layertrace.metrics([({}, {}, 0)])) | {"trace.overhead"}
    assert names == {m["name"] for m in spec["per_layer"]}
    import run

    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        assert run._layer_unit(m["name"]) == m["unit"]
    for m in spec["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orlicz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
