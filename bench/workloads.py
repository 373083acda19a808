"""The four workloads: fixed job lists built from a seed, with their checks.

A job is one call into a public admlab entry point.  ``build(name, seed,
workdir)`` returns the workload's job list; the same seed gives the same jobs
with the same inputs.  Every job carries a check that compares its warm-up
output with :mod:`oracles` (never with a stored copy of an earlier output),
and a rerun comparison with that warm-up output.  A check or comparison
returns ``None`` on success, a :class:`Known` reason for the one failure a
named fault is known to cause, and a plain string for anything else.

Cost clusters are sized so that no job kind's share of the list sits near
50 % or 10 %: the median and the 90th percentile of job times then fall
inside one cluster instead of on the edge between two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc


class Known(str):
    """The failure a named fault of admlab causes on every run: counted in
    ``failed``, but the run stays correct."""


def fingerprint(x):
    """Exact, comparable form of a result (floats by their bits)."""
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return ("d", tuple(sorted((str(k), fingerprint(v)) for k, v in x.items())))
    if isinstance(x, (list, tuple)):
        return ("l", tuple(fingerprint(v) for v in x))
    if isinstance(x, float):
        return ("f", x.hex())
    if isinstance(x, complex):
        return ("c", x.real.hex(), x.imag.hex())
    if x is None or isinstance(x, (bool, int, str, bytes)):
        return x
    if isinstance(x, np.generic):
        return fingerprint(x.item())
    return (type(x).__name__, fingerprint(vars(x)))


def same_output(ref, out):
    if fingerprint(out) == fingerprint(ref):
        return None
    return "output differs from the warm-up run"


@dataclass
class Job:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # on the collected warm-up output
    collect: Callable[[Any], Any] = lambda value: value
    rerun: Callable[[Any, Any], "str | None"] = same_output  # (warm-up, rerun)
    outdir: "Path | None" = None  # where a CLI job writes its report and CSVs


def rng_for(seed, key):
    """Generator for one use (``key``) of a seed; any integer seed, negative
    ones included."""
    return np.random.default_rng([seed % 2**64, key])


def _modules():
    from admlab import admissibility, certify, orlicz, signals, spectral

    return admissibility, certify, orlicz, signals, spectral


def _spectrum(rng, n, angle=0.6):
    """lam_k proportional to -k (1 + 0.2 u_k) e^{i theta_k}, |theta_k| <= angle,
    scaled to the decay margin delta = 1 so that horizons do not vary with
    the seed."""
    k = np.arange(1, n + 1, dtype=float)
    mag = k * (1.0 + 0.2 * rng.random(n))
    theta = angle * (2.0 * rng.random(n) - 1.0)
    lam = -mag * np.exp(1j * theta)
    return lam / float(-np.max(lam.real))


def _cnormal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _breakpoints(rng, horizon, pieces):
    """A jittered uniform grid: every window [0, t] holds about the same number
    of pieces whatever the seed, so the cost of a job does not vary with it."""
    inner = np.arange(1, pieces) + 0.6 * (rng.random(pieces - 1) - 0.5)
    return np.concatenate([[0.0], inner * (horizon / pieces), [horizon]])


def _unit_disk(rng, shape):
    return rng.random(shape) * np.exp(2j * math.pi * rng.random(shape))


def _cols(B, lam):
    """Input columns as an (n, m) matrix: the rank-one form is lam * x0."""
    if B.kind == "aminus_x0":
        return (lam * B.data)[:, None]
    return B.data


# ---------------------------------------------------------------------------
# envelope: ISS certificates and simulate-style trajectory sweeps
# ---------------------------------------------------------------------------

LADDER = (512, 1024, 2048, 4096, 8192)
SWEEP_SAMPLES = 33
ISS_MODES, ISS_TRIALS = 1024, 20


def envelope(seed):
    ad, ce, _, sg, sp = _modules()
    rng = rng_for(seed, 1)
    jobs = []
    for i, n in enumerate(LADDER):
        lam = _spectrum(rng, n)
        A = sp.DiagonalGenerator(lam)
        k = np.arange(1, n + 1)
        if i % 2 == 0:
            B = ad.InputOperator.aminus_x0(_cnormal(rng, n) / k)
            vals = _unit_disk(rng, 10)
        else:
            B = ad.InputOperator.columns(_cnormal(rng, (n, 2)) / np.sqrt(k)[:, None])
            vals = _unit_disk(rng, (10, 2))
        x0 = sp.SpectralVector(_cnormal(rng, n) / k, "X")
        horizon = 4.0 / A.delta
        u = sg.PiecewiseSignal(_breakpoints(rng, horizon, 10), vals)
        times = np.linspace(0.0, horizon, SWEEP_SAMPLES)[1:]
        sweep = _Sweep(lam, _cols(B, lam), x0.coefficients, u, times)
        for j, t in enumerate(times):
            jobs.append(Job(
                "trajectory", f"n={n} t={t:.4g}",
                call=lambda A=A, B=B, x0=x0, u=u, t=float(t): _traj(ad, sp, A, B, x0, u, t),
                check=lambda out, s=sweep, j=j: s.check(j, out),
            ))
    for kind in ("columns", "aminus_x0"):
        n = ISS_MODES
        lam = _spectrum(rng, n)
        A = sp.DiagonalGenerator(lam)
        k = np.arange(1, n + 1)
        if kind == "columns":
            B = ad.InputOperator.columns(_cnormal(rng, (n, 2)) / k[:, None])
        else:
            B = ad.InputOperator.aminus_x0(_cnormal(rng, n) / k**1.5)
        s = int(rng.integers(0, 2**31))
        jobs.append(Job(
            "iss_certificate", f"{kind} n={n}",
            call=lambda A=A, B=B, s=s: ce.iss_certificate(A, B, n_trials=ISS_TRIALS, seed=s),
            check=lambda res: orc.check_certificate(res, ISS_TRIALS),
        ))
    return jobs


def _traj(ad, sp, A, B, x0, u, t):
    x = ad.trajectory(A, B, x0, u, t)
    return x.coefficients, sp.space_norm(A, x)


class _Sweep:
    """Stepper states for one sweep, computed on first use."""

    def __init__(self, lam, cols, x0, u, times):
        self.args = (lam, cols, x0, u.breakpoints, u.values, times)
        self.states = None

    def check(self, j, out):
        if self.states is None:
            self.states = orc.step_states(*self.args)
        coeff, norm = out
        want = self.states[j]
        bad = orc.check_states([coeff], [want])
        return bad or orc.check_close("state norm", norm, np.linalg.norm(want), 1e-9)


# ---------------------------------------------------------------------------
# orlicz: Luxemburg norms, the Orlicz admissibility certificate, iISS, shift
# ---------------------------------------------------------------------------

POWER = (3.0, 0.5)  # Phi(x) = 0.5 x^3
SEGMENTS = ((0.0, "power", 2.0, 1.0), (1.0, "const", 3.0, 0.0), (2.0, "power", 1.5, 1.0))
LUX_PROFILES = {16: 16, 256: 8}  # pieces -> profiles per (Young function, tail) pair


def _young(oz, which):
    if which == "power":
        return oz.power_young(*POWER)
    return oz.YoungFunction([oz.Segment(*s) for s in SEGMENTS])


def _segs(phi):
    return [(s.x0, s.kind, s.c, s.r) for s in phi.segments]


def orlicz(seed):
    ad, ce, oz, sg, sp = _modules()
    rng = rng_for(seed, 2)
    jobs = []
    for pieces, count in LUX_PROFILES.items():
        for which in ("power", "segments"):
            phi = _young(oz, which)
            for tail in (False, True):
                for _ in range(count):
                    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, pieces))])
                    edges *= 4.0 / edges[-1]
                    vals = rng.uniform(0.0, 3.0, pieces)
                    rate = float(rng.uniform(0.5, 2.0)) if tail else None
                    f = oz.SampledFunction(edges, vals, rate)
                    jobs.append(Job(
                        "luxemburg_norm", f"K={pieces} {which} tail={tail}",
                        call=lambda phi=phi, f=f: oz.luxemburg_norm(phi, f),
                        check=lambda k, w=which, a=(edges, vals, rate): check_lux(w, a, k),
                    ))
    for which in ("power", "segments"):
        phi = _young(oz, which)
        for _ in range(4):
            c, a = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.3, 0.6))
            prof = {"kind": "power", "coeff": c, "exponent": a}
            jobs.append(Job(
                "shift_demo", f"{which} c={c:.3g} a={a:.3g}",
                call=lambda prof=prof, phi=phi: ce.shift_demo(prof, phi),
                check=lambda res, w=which, c=c, a=a: check_shift(w, c, a, res),
            ))
    for which in ("power", "segments"):
        psi = _young(oz, which)
        n = 256
        lam = _spectrum(rng, n)
        A = sp.DiagonalGenerator(lam)
        x0 = _cnormal(rng, n) / np.arange(1, n + 1) ** 1.5
        s = int(rng.integers(0, 2**31))
        jobs.append(Job(
            "orlicz_adm_bound", f"{which} n={n}",
            call=lambda A=A, x0=x0, psi=psi, s=s: ad.orlicz_adm_bound(A, x0, psi, seed=s),
            check=lambda res, lam=lam, x0=x0, w=which, s=s: _check_oab(lam, x0, w, s, res),
        ))
        n = 64
        A = sp.DiagonalGenerator(_spectrum(rng, n))
        x0 = _cnormal(rng, n) / np.arange(1, n + 1) ** 1.5
        s = int(rng.integers(0, 2**31))
        jobs.append(Job(
            "iiss_certificate", f"{which} n={n}",
            call=lambda A=A, x0=x0, psi=psi, s=s: ce.iiss_certificate(
                A, x0, psi, n_trials=20, seed=s),
            check=lambda res: orc.check_certificate(res, 20),
        ))
    return jobs


def check_lux(which, profile, k):
    edges, vals, rate = profile
    if which == "power":
        want = orc.power_luxemburg(POWER[1], POWER[0], edges, vals, rate)
        return orc.check_close("Luxemburg norm", k, want, 1e-9)
    return orc.check_bracket(list(SEGMENTS), edges, vals, rate, k)


def check_shift(which, c, a, res):
    bad = orc.check_close("l1", res["l1"], c / (a + 1.0), 1e-12)
    if bad:
        return bad
    if which == "power":
        p, scale = POWER
        want = scale * c**p / (a * p + 1.0)
    else:
        want = orc.power_profile_modular(list(SEGMENTS), c, a)
    return orc.check_close("shift modular", res["modular"], want, 1e-9)


def _check_oab(lam, x0, which, seed, res):
    phi, C = res
    if not (math.isfinite(C) and C > 0.0):
        return f"certificate constant {C!r} is not positive and finite"
    segs = _segs(phi)
    if which == "power":
        xs = np.array([0.1, 0.7, 1.0, 2.5])
        got = orc.young_eval(segs, xs)
        want = orc.power_conjugate(POWER[1], POWER[0], xs**2)
        if not np.allclose(got, want, rtol=1e-12, atol=0.0):
            return f"Phi differs from the conjugate of Psi at x^2: {got} vs {want}"
    rng = rng_for(seed, 7)
    delta = float(-np.max(lam.real))
    for trial in range(4):
        t = (0.5, 1.0, 2.0, 8.0)[trial] / delta
        bp = _breakpoints(rng, t, 6)
        vals = _unit_disk(rng, 6)
        x = orc.step_states(lam, (lam * x0)[:, None], np.zeros(len(lam)), bp, vals, [t])[0]
        lhs = float(np.linalg.norm(x))
        rhs = C * orc.own_luxemburg(segs, bp, np.abs(vals))
        if not lhs <= rhs * (1.0 + 1e-9):
            return f"||Phi_t u|| = {lhs!r} exceeds C ||u||_Phi = {rhs!r} at t = {t:g}"
    return None


# ---------------------------------------------------------------------------
# bounds: two-sided L-infty bounds, zero class, infinite-time sups, Weiss grid
# ---------------------------------------------------------------------------

BOUND_SIZES = (64, 1024, 8192)
BOUND_HORIZONS = (0.5, 1.0, 2.0)  # in units of 1/delta
SUP_MODES = 200
WEISS_MODES = 256


def _operators(ad, rng, n, kinds=("aminus_x0", "columns", "aminus_full")):
    k = np.arange(1, n + 1)
    out = []
    for kind in kinds:
        if kind == "aminus_x0":
            out.append(ad.InputOperator.aminus_x0(_cnormal(rng, n) / k**1.5))
        elif kind == "columns":
            out.append(ad.InputOperator.columns(_cnormal(rng, (n, 3)) / k[:, None]))
        elif kind == "columns1":
            out.append(ad.InputOperator.columns(_cnormal(rng, (n, 1)) / k[:, None]))
        else:
            out.append(ad.InputOperator.aminus_full())
    return out


def _fixed_three_columns(ad, sp):
    """Seed-independent three-column system whose L2 norm shows the per-column
    Gram-sum fault on every run."""
    rng = np.random.default_rng(1709)
    n = SUP_MODES
    A = sp.DiagonalGenerator(_spectrum(rng, n, angle=0.3))
    B = ad.InputOperator.columns(_cnormal(rng, (n, 3)) / np.arange(1, n + 1)[:, None])
    return A, B


def bounds(seed):
    ad, ce, _, _, sp = _modules()
    rng = rng_for(seed, 3)
    jobs = []
    for n in BOUND_SIZES:
        lam = _spectrum(rng, n)
        A = sp.DiagonalGenerator(lam)
        for B in _operators(ad, rng, n):
            for h in BOUND_HORIZONS:
                t = h / A.delta
                s = int(rng.integers(0, 2**31))
                jobs.append(Job(
                    "linfty_bounds", f"{B.kind} n={n} t={t:.3g}",
                    call=lambda A=A, B=B, t=t, s=s: ad.linfty_bounds(A, B, t, seed=s),
                    check=lambda r, lam=lam, B=B, t=t: _check_report(lam, B, [t], r),
                ))
    n = 64
    lam = _spectrum(rng, n)
    A = sp.DiagonalGenerator(lam)
    # t_min |lambda_max| > 0.5, so the full diagonal form keeps its probe floor
    grid = [g / A.delta for g in (0.01, 0.03, 0.1, 1.0)]
    for B in _operators(ad, rng, n):
        s = int(rng.integers(0, 2**31))
        jobs.append(Job(
            "zero_class_profile", f"{B.kind} n={n}",
            call=lambda A=A, B=B, s=s: ad.zero_class_profile(A, B, grid, seed=s),
            check=lambda res, lam=lam, B=B: _check_zero_class(lam, B, grid, res),
        ))
    n = SUP_MODES
    lam = _spectrum(rng, n, angle=0.3)
    A = sp.DiagonalGenerator(lam)
    ops = _operators(ad, rng, n, ("aminus_x0", "columns1", "columns", "aminus_full"))
    for B in ops:
        horizons = [h / A.delta for h in (0.25, 1.0, 4.0)]
        jobs.append(Job(
            "infinite_time_sup", f"Linf {B.kind} n={n}",
            call=lambda A=A, B=B: ad.infinite_time_sup(A, B, "Linf"),
            check=lambda r, lam=lam, B=B, h=horizons: _check_report(lam, B, h, r),
        ))
        jobs.append(Job(
            "infinite_time_sup", f"L1 {B.kind} n={n}",
            call=lambda A=A, B=B: ad.infinite_time_sup(A, B, "L1"),
            check=lambda r, lam=lam, B=B: _check_l1(lam, B, r),
        ))
    for B in ops[:2]:
        jobs.append(Job(
            "infinite_time_sup", f"L2 {B.kind} cols={B.n_inputs(A)} n={n}",
            call=lambda A=A, B=B: ad.infinite_time_sup(A, B, "L2"),
            check=lambda r, lam=lam, B=B: _check_l2(lam, B, r),
        ))
    A3, B3 = _fixed_three_columns(ad, sp)
    jobs.append(Job(
        "infinite_time_sup", f"L2 columns cols=3 n={SUP_MODES} (fixed input)",
        call=lambda: ad.infinite_time_sup(A3, B3, "L2"),
        check=lambda r: check_l2_fault(A3.eigenvalues, B3, r),
    ))
    n = WEISS_MODES
    lam = _spectrum(rng, n)
    A = sp.DiagonalGenerator(lam)
    for B in _operators(ad, rng, n, ("aminus_x0", "columns1", "aminus_full")):
        for p in (math.inf, 2.0):
            jobs.append(Job(
                "weiss_check", f"{B.kind} p={p:g} n={n}",
                call=lambda A=A, B=B, p=p: ce.weiss_check(A, B, p),
                check=lambda r, lam=lam, B=B, p=p: check_weiss(
                    lam, _input_cols(B, lam), p, r.closed_form, r.value),
            ))
    return jobs


def _input_cols(B, lam):
    """Columns for the oracles; None stands for the full diagonal form."""
    return None if B.kind == "aminus_full" else _cols(B, lam)


def check_linf(lam, cols, horizons, lower, upper):
    """Lower bound at least the best constant input over ``horizons``, lower <=
    upper, and a finite upper bound unless ``cols`` is None (full diagonal)."""
    full = cols is None
    floor = max(orc.const_input_value(lam, np.ones(len(lam)), cols, t, full) for t in horizons)
    bad = orc.check_lower("lower", lower, floor)
    if bad:
        return bad
    if not full and not math.isfinite(upper):
        return "no finite upper bound"
    if not lower <= upper * (1.0 + 1e-9):
        return f"lower {lower!r} exceeds upper {upper!r}"
    return None


def _check_report(lam, B, horizons, r):
    return check_linf(lam, _input_cols(B, lam), horizons, r.lower, r.upper)


def _check_zero_class(lam, B, grid, res):
    reports, flags = res
    for t, r in zip(grid, reports):
        bad = _check_report(lam, B, [t], r)
        if bad:
            return f"t={t:g}: {bad}"
    if B.kind == "columns" and not flags["zero_class_plausible"]:
        return "bounded columns not flagged zero-class plausible"
    if B.kind == "aminus_full" and not flags["obstructed"]:
        return "the full diagonal form is not flagged obstructed"
    return None


def _check_l2(lam, B, r):
    want = orc.l2_sup(lam, np.ones(len(lam)), _cols(B, lam))
    return orc.check_close("L2 sup", r.upper, want, 1e-9) or orc.check_close(
        "L2 sup (lower)", r.lower, want, 1e-9)


def check_l2_fault(lam, B, r):
    """The three-column L2 job: admlab's value is the known fault when it
    equals sqrt(sum_j lambda_max(G_j)), the per-column Gram maxima added up."""
    bad = _check_l2(lam, B, r)
    if bad is None:
        return None
    cols = _cols(B, lam)
    summed = math.sqrt(sum(
        orc.l2_sup(lam, np.ones(len(lam)), cols[:, [j]]) ** 2 for j in range(cols.shape[1])))
    if orc.check_close("", r.upper, summed, 1e-9) or orc.check_close("", r.lower, summed, 1e-9):
        return bad
    return Known(f"{bad}; admissibility._l2_norm_exact adds the per-column Gram "
                 f"maxima ({summed!r}), the norm is lambda_max of the summed Gram")


def _check_l1(lam, B, r):
    if B.kind == "aminus_full":
        want = float(np.max(np.abs(lam)))
    else:
        want = orc.l1_norm(np.ones(len(lam)), _cols(B, lam))
    return orc.check_close("L1 norm", r.upper, want, 1e-12)


def check_weiss(lam, cols, p, closed_form, value):
    """``cols`` None stands for the full diagonal form."""
    full = cols is None
    rows = orc.weiss_rows(lam, np.ones(len(lam)), cols, full)
    floor, upper = orc.weiss_bounds(lam, rows, p, full)
    bad = orc.check_close("per-mode closed form", closed_form, floor, 1e-12)
    if bad:
        return bad
    if not value <= upper * (1.0 + 1e-9):
        return f"grid value {value!r} exceeds the bound {upper!r}"
    if len(lam) <= 1000:  # every mode is an optimizer candidate
        return orc.check_lower("grid value", value, floor, 1e-8)
    return None


BUILDERS = {"envelope": envelope, "orlicz": orlicz, "bounds": bounds}


def build(name, seed, workdir: Path):
    if name == "cli":
        import cli_jobs

        return cli_jobs.build(seed, workdir)
    return BUILDERS[name](seed)
