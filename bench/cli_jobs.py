"""The ``cli`` workload: ``admlab.cli.run`` on scenario files written at set-up.

All ten commands run against scenarios generated from the seed, among them
explicit-eigenvalue ones up to 2048 modes (where schema validation in
``load_scenario`` is a large share of the run) and ``counterexample`` up to
M = 1e5 (where row formatting and CSV writing dominate).  Each job writes
into its own output directory.  A job's output is its exit code and the bytes
of every file it wrote: reruns are byte-compared with the warm-up output, and
the warm-up output is checked against the oracles.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles as orc
from workloads import (
    POWER,
    SEGMENTS,
    Job,
    Known,
    _breakpoints,
    _cnormal,
    _spectrum,
    _unit_disk,
    check_linf,
    check_lux,
    check_shift,
    check_weiss,
    rng_for,
    same_output,
)

CE_K = 0.5
CE_SIZES = (1000, 10000, 100000)
CE_FAULT = (
    "the counterexample report embeds runtime_s, so reruns are not "
    "byte-identical"
)


def _pairs(z):
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


def _young_json(which):
    if which == "power":
        return {"power": POWER[0], "scale": POWER[1]}
    return {"segments": [{"x0": x0, "kind": k, "c": c, "r": r} for x0, k, c, r in SEGMENTS]}


def _input_operator(rng, lam, kind, decay):
    """Scenario ``input_operator`` and its columns (None for the full diagonal
    form); x0, or each of the two columns, falls off like k^-decay."""
    n = len(lam)
    k = np.arange(1, n + 1)
    if kind == "aminus_x0":
        x0 = _cnormal(rng, n) / k**decay
        return {"kind": kind, "x0": _pairs(x0)}, (lam * x0)[:, None]
    if kind == "columns":
        cols = _cnormal(rng, (n, 2)) / k[:, None] ** decay
        return {"kind": kind, "matrix": [_pairs(row) for row in cols]}, cols
    return {"kind": kind}, None


class _Scenarios:
    def __init__(self, workdir: Path):
        self.dir = workdir / "scenarios"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, payload) -> str:
        self.count += 1
        path = self.dir / f"s{self.count:03d}.json"
        path.write_text(json.dumps(payload))
        return str(path)


def _read_outputs(outdir: Path):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _report(files, command: str):
    return json.loads(files[f"{command}.report.json"])["results"]


def _csv(files, name: str):
    return [line.split(",") for line in files[name].decode().splitlines()[1:]]


def _same_but_runtime(ref, out):
    """Counterexample reruns: the known fault is a difference in ``runtime_s``
    alone; any other difference is a failure of its own."""
    if ref == out:
        return None

    def without_runtime(output):
        code, files = output
        files = dict(files)
        report = json.loads(files.pop("counterexample.report.json"))
        report["results"].pop("runtime_s")
        return code, files, report

    if without_runtime(ref) == without_runtime(out):
        return Known(CE_FAULT)
    return "output differs from the warm-up run beyond runtime_s"


def build(seed, workdir: Path):
    from admlab import cli

    rng = rng_for(seed, 4)
    scn = _Scenarios(workdir)
    outs = workdir / "out"
    jobs = []

    def add(command, label, payload, check, rerun=same_output):
        path = scn.write(payload)
        outdir = outs / f"j{len(jobs):03d}"
        outdir.mkdir(parents=True, exist_ok=True)

        def checked(output):
            code, files = output
            if code != 0:
                return f"exit code {code}"
            return check(files)

        jobs.append(Job(
            command, label,
            call=lambda: cli.run(command, path, out=str(outdir), quiet=True),
            check=checked,
            collect=lambda code: (code, _read_outputs(outdir)),
            rerun=rerun,
            outdir=outdir,
        ))

    # Job counts: the cheap Python-bound commands stay below 35 % of the list,
    # so the median falls in the block of numpy-bound weiss grids and the
    # 90th percentile in the block of 512-mode iss jobs.

    # orlicz-norm: sampled profiles, power and multi-segment Young functions
    for which in ("power", "segments"):
        for tail in (False, True, True):
            for _ in range(1 if tail else 2):
                edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 64))])
                vals = rng.uniform(0.0, 3.0, 64)
                rate = float(rng.uniform(0.5, 2.0)) if tail else None
                prof = {"kind": "samples", "edges": edges.tolist(), "values": vals.tolist()}
                if rate is not None:
                    prof["tail_rate"] = rate
                add("orlicz-norm", f"{which} tail={tail}",
                    {"young": _young_json(which), "profile": prof},
                    lambda f, w=which, a=(edges, vals, rate): check_lux(
                        w, a, _report(f, "orlicz-norm")["luxemburg_norm"]))

    # shift-demo: power profiles in the Orlicz class
    for which in ("power", "segments"):
        for _ in range(2):
            c, a = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.3, 0.6))
            add("shift-demo", f"{which} c={c:.3g} a={a:.3g}",
                {"young": _young_json(which),
                 "profile": {"kind": "power", "coeff": c, "exponent": a}},
                lambda f, w=which, c=c, a=a: check_shift(w, c, a, _report(f, "shift-demo")))

    # probe-boundedness: ray rules, real axis and oblique
    for angle in (0.0, float(rng.uniform(0.2, 1.2))):
        rule = {"kind": "ray", "base": -float(rng.uniform(0.5, 2.0)),
                "exponent": 1.0, "angle": angle, "count": 1}
        Ns = [16, 64, 256, 4096]
        add("probe-boundedness", f"angle={angle:.3g} N<=4096",
            {"probe_rule": rule, "Ns": Ns, "t_grid": [1e-3, 1e-2, 1e-1]},
            lambda f, r=rule, Ns=Ns: _check_probe(f, r, Ns))

    # sqfct: ray and explicit spectra
    for count in (256, 1024, 4096):
        angle = float(rng.uniform(0.0, 1.2))
        gen = {"kind": "ray", "base": -1.0, "exponent": float(rng.uniform(0.5, 2.0)),
               "angle": angle, "count": count}
        add("sqfct", f"ray n={count}", {"generator": gen},
            lambda f, g=gen: _check_sqfct(f, _ray(g)))
    lam = _spectrum(rng, 512)
    add("sqfct", "explicit n=512", {"generator": {"eigenvalues": _pairs(lam)}},
        lambda f, lam=lam: _check_sqfct(f, lam))

    # weiss: ray spectra with the full diagonal form, whose grid is numpy-bound
    for i in range(12):
        gen = {"kind": "ray", "base": -float(rng.uniform(0.5, 2.0)),
               "exponent": float(rng.uniform(0.5, 1.5)), "angle": float(rng.uniform(0.0, 1.2)),
               "count": 512}
        p = ("inf", 2)[i % 2]
        add("weiss", f"ray aminus_full p={p} n=512",
            {"generator": gen, "input_operator": {"kind": "aminus_full"}, "p": p},
            lambda f, g=gen, p=p: _check_weiss(f, _ray(g), None, p))

    # weiss: an explicit spectrum with a rank-one input
    lam = _spectrum(rng, 1024)
    op, cols = _input_operator(rng, lam, "aminus_x0", 1.5)
    add("weiss", "aminus_x0 p=inf n=1024",
        {"generator": {"eigenvalues": _pairs(lam)}, "input_operator": op, "p": "inf"},
        lambda f, lam=lam, cols=cols: _check_weiss(f, lam, cols, "inf"))

    # adm: explicit spectra, with the zero-class profile
    for n, kind in ((256, "aminus_x0"), (128, "columns"), (64, "aminus_full")):
        lam = _spectrum(rng, n)
        op, cols = _input_operator(rng, lam, kind, 1.5 if kind == "aminus_x0" else 1.0)
        add("adm", f"{kind} n={n}",
            {"generator": {"eigenvalues": _pairs(lam)}, "input_operator": op,
             "horizons": [0.25, 1.0, 4.0], "zero_class": True,
             "seed": int(rng.integers(0, 2**31))},
            lambda f, lam=lam, cols=cols: _check_adm(f, lam, cols))

    # simulate: explicit piecewise signals, rank-one and two-column inputs
    for n, kind in ((512, "aminus_x0"), (256, "columns")):
        lam = _spectrum(rng, n)
        horizon = 4.0 / float(-np.max(lam.real))
        bp = _breakpoints(rng, horizon, 10)
        rank_one = kind == "aminus_x0"
        op, cols = _input_operator(rng, lam, kind, 1.0 if rank_one else 0.5)
        vals = _unit_disk(rng, 10 if rank_one else (10, 2))
        init = _cnormal(rng, n) / np.arange(1, n + 1)
        add("simulate", f"{kind} n={n}",
            {"generator": {"eigenvalues": _pairs(lam)}, "input_operator": op,
             "signal": {"breakpoints": bp.tolist(),
                        "values": _pairs(vals) if rank_one else [_pairs(row) for row in vals]},
             "initial_state": _pairs(init), "horizon": horizon, "n_time_samples": 33},
            lambda f, a=(lam, cols, init, bp, vals): _check_simulate(f, *a))

    # iss and iiss: explicit spectra, seeded trials.  The four 512-mode iss
    # jobs and iiss cost about the same and hold the 90th percentile.
    for n, kind, trials in ((2048, "aminus_x0", 10),) + ((512, "columns", 20),) * 4:
        lam = _spectrum(rng, n)
        op, _ = _input_operator(rng, lam, kind, 1.5 if kind == "aminus_x0" else 1.0)
        add("iss", f"{kind} n={n}",
            {"generator": {"eigenvalues": _pairs(lam)}, "input_operator": op,
             "trials": trials, "seed": int(rng.integers(0, 2**31))},
            lambda f, trials=trials: orc.check_certificate(_report(f, "iss"), trials))
    lam = _spectrum(rng, 64)
    add("iiss", "power n=64",
        {"generator": {"eigenvalues": _pairs(lam)},
         "x0": _pairs(_cnormal(rng, 64) / np.arange(1, 65) ** 1.5),
         "young": _young_json("power"), "trials": 20,
         "seed": int(rng.integers(0, 2**31))},
        lambda f: orc.check_certificate(_report(f, "iiss"), 20))

    # counterexample: fixed inputs; the fault shows on every rerun
    for M in CE_SIZES:
        add("counterexample", f"M={M}", {"M": M, "k_bound": CE_K},
            lambda f, M=M: _check_counterexample(f, M), rerun=_same_but_runtime)
    return jobs


def _ray(gen):
    n = np.arange(1, gen["count"] + 1, dtype=float)
    return -abs(gen["base"]) * n ** gen["exponent"] * np.exp(1j * gen["angle"])


def _check_probe(files, rule, Ns):
    res = _report(files, "probe-boundedness")
    floor = orc.probe_floor(rule["angle"])
    for N in Ns:
        bad = orc.check_close(f"matched value N={N}", res["matched_scale_values"][str(N)],
                              floor, 1e-12)
        if bad:
            return bad
    if not res["uniform_floor"]:
        return "uniform floor not reported"
    for N, t, value, _ in _csv(files, "probe.csv"):
        lam = _ray({**rule, "count": int(float(N))})
        want = float(np.max(np.abs(np.expm1(lam * float(t)))))
        bad = orc.check_close(f"probe N={N} t={t}", value, want, 1e-12)
        if bad:
            return bad
    return None


def _check_sqfct(files, lam):
    res = _report(files, "sqfct")
    per = orc.sqfct_per_mode(lam)
    bad = orc.check_close("k", res["k_lower"], min(per), 1e-12) or orc.check_close(
        "K", res["K_upper"], max(per), 1e-12)
    if bad:
        return bad
    rows = _csv(files, "sqfct.csv")
    if len(rows) != len(per):
        return f"sqfct.csv has {len(rows)} rows for {len(per)} modes"
    for (_, value), want in zip(rows, per):
        bad = orc.check_close("per-mode integral", value, want, 1e-12)
        if bad:
            return bad
    if not res["quad_max_rel_err"] <= 1e-8:
        return f"quadrature error {res['quad_max_rel_err']!r}"
    return None


def _check_weiss(files, lam, cols, p):
    res = _report(files, "weiss")
    return check_weiss(lam, cols, math.inf if p == "inf" else float(p),
                       res["closed_form"], res["value"])


def _check_adm(files, lam, cols):
    res = _report(files, "adm")
    for r in res["reports"]:
        t = float(r["t"])
        upper = math.inf if r["upper"] == "inf" else float(r["upper"])
        bad = check_linf(lam, cols, [t], r["lower"], upper)
        if bad:
            return f"t={t:g}: {bad}"
    if cols is None and not res["zero_class"]["obstructed"]:
        return "the full diagonal form is not flagged obstructed"
    return None


def _check_simulate(files, lam, cols, init, bp, vals):
    rows = _csv(files, "trajectory.csv")
    times = [float(t) for t, _ in rows]
    states = orc.step_states(lam, cols, init, bp, vals, times)
    for (t, norm), x in zip(rows, states):
        bad = orc.check_close(f"state norm at t={t}", norm, np.linalg.norm(x), 1e-9)
        if bad:
            return bad
    return None


def _check_counterexample(files, M):
    res = _report(files, "counterexample")
    sigma = orc.counterexample_sigma(CE_K)
    bad = orc.check_close("S_M", res["S_final"], M * sigma, 1e-9)
    if bad:
        return bad
    for m, value in res["checkpoints"].items():
        bad = orc.check_close(f"S_{m}", value, int(m) * sigma, 1e-9)
        if bad:
            return bad
    last = _csv(files, "divergence.csv")[-1]
    return orc.check_close("divergence.csv S_M", last[1], M * sigma, 1e-9)
