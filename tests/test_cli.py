"""Command-line driver: scenario validation, outputs, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from admlab import cli
from admlab.admissibility import InputOperator
from admlab.certify import weiss_check
from admlab.cli import ConfigError, _json_ready, emit_plotdata, load_scenario, main, run
from admlab.spectral import DiagonalGenerator

ADM_SCENARIO = {
    "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0], [-4.0, 0.0]]},
    "input_operator": {"kind": "aminus_x0", "x0": [0.6, 0.48, 0.64]},
    "horizons": [0.25, 1.0, 4.0],
    "seed": 11,
}

CE_SCENARIO = {"M": 100, "k_bound": 0.0}

GOLDEN = Path(__file__).parent / "golden"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def test_run_adm_report_and_csv(tmp_path, capsys):
    scn = _write(tmp_path, "adm.json", ADM_SCENARIO)
    out = tmp_path / "out"
    assert run("adm", scn, out=str(out)) == 0
    report = json.loads((out / "adm.report.json").read_text())
    assert set(report) == {"command", "scenario_hash", "version", "seed", "results"}
    assert report["command"] == "adm"
    assert report["seed"] == 11
    digest = hashlib.sha256((tmp_path / "adm.json").read_bytes()).hexdigest()
    assert report["scenario_hash"] == digest
    csv = (out / "admissibility.csv").read_text().splitlines()
    assert csv[0] == "t,Z,lower,upper,route"
    assert len(csv) > 1
    assert capsys.readouterr().out  # summary lines printed


EXPLICIT_3 = [[-1.0, 0.0], [-2.0, 0.5], [-4.0, -0.5]]
SAMPLES = {"kind": "samples", "edges": [0.0, 0.25, 0.6, 1.0], "values": [1.5, 0.25, 2.0]}

# Every command but counterexample (whose report embeds runtime_s), on
# scenarios with explicit per-mode arrays wherever the command reads them.
RERUN_SCENARIOS = {
    "adm": ADM_SCENARIO,
    "simulate": {
        "generator": {"eigenvalues": EXPLICIT_3, "weights": [1.0, 0.5, 2.0]},
        "input_operator": {"kind": "columns", "matrix": [[1.0, 0.0], [0.5, 0.2], [0.25, 1.0]]},
        "signal": {"kind": "random", "n_pieces": 4, "horizon": 1.0},
        "initial_state": [1.0, [0.0, 0.5], 0.3],
        "n_time_samples": 5,
        "seed": 3,
    },
    "weiss": {
        "generator": {"eigenvalues": EXPLICIT_3},
        "input_operator": {"kind": "aminus_x0", "x0": [0.6, [0.48, 0.1], 0.64]},
        "p": 2,
    },
    "sqfct": {"generator": {"eigenvalues": EXPLICIT_3, "weights": [1.0, 0.5, 2.0]}},
    "iss": {
        "generator": {"eigenvalues": EXPLICIT_3},
        "input_operator": {"kind": "aminus_x0", "x0": [1.0, 0.5, [0.0, 0.25]]},
        "trials": 5,
        "seed": 4,
    },
    "iiss": {
        "generator": {"eigenvalues": EXPLICIT_3},
        "x0": [1.0, 0.5, [0.0, 0.5]],
        "young": {"power": 2.0},
        "trials": 4,
        "seed": 7,
    },
    "orlicz-norm": {"young": {"power": 3.0, "scale": 0.5}, "profile": SAMPLES},
    "shift-demo": {"young": {"power": 1.5}, "profile": SAMPLES},
    "probe-boundedness": {
        "probe_rule": {"kind": "ray", "base": -0.8, "exponent": 1.0, "angle": 0.6,
                       "count": 4, "weights": [1.0, 0.5, 0.25, 2.0]},
        "Ns": [4],
        "t_grid": [0.01, 0.1],
    },
}


def test_byte_identical_reruns(tmp_path):
    for command, scenario in RERUN_SCENARIOS.items():
        scn = _write(tmp_path, f"{command}.json", scenario)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command / name
            assert run(command, scn, out=str(out), quiet=True) == 0, command
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert f"{command}.report.json" in outs[0]
        assert outs[0] == outs[1], command


def test_malformed_json_exits_1(tmp_path, capsys):
    scn = _write(tmp_path, "bad.json", '{"generator": [,]}')
    assert main(["adm", "--scenario", scn]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_key_named(tmp_path, capsys):
    scn = _write(tmp_path, "bad.json", {**CE_SCENARIO, "generatorr": {}})
    assert main(["counterexample", "--scenario", scn]) == 1
    assert "generatorr" in capsys.readouterr().err


def test_nested_schema_error_has_pointer_path(tmp_path, capsys):
    bad = dict(ADM_SCENARIO)
    bad["input_operator"] = {"kind": "aminus_x0", "x0": "nope"}
    scn = _write(tmp_path, "bad.json", bad)
    assert main(["adm", "--scenario", scn]) == 1
    assert "/input_operator/x0" in capsys.readouterr().err
    # variant keys (oneOf) report at the variant root
    worse = dict(ADM_SCENARIO)
    worse["generator"] = {"eigenvalues": "nope"}
    scn = _write(tmp_path, "worse.json", worse)
    assert main(["adm", "--scenario", scn]) == 1
    assert "'/generator'" in capsys.readouterr().err


def test_unknown_command_exits_1(tmp_path, capsys):
    scn = _write(tmp_path, "ce.json", CE_SCENARIO)
    assert main(["frobnicate", "--scenario", scn]) == 1
    capsys.readouterr()
    with pytest.raises(ConfigError):
        run("frobnicate", scn)


def test_seeded_command_requires_seed(tmp_path, capsys):
    scn = _write(tmp_path, "iss.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0]]},
        "input_operator": {"kind": "aminus_x0", "x0": [1.0, 0.5]},
        "trials": 5,
    })
    assert main(["iss", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["iss", "--scenario", scn, "--seed", "4", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["iss", "iiss"])
@pytest.mark.parametrize("bad, message", [
    ({"trials": 0}, "trials"),
    ({"trials": -1}, "trials"),
    ({"trials": 2.5}, "trials"),
    ({"horizon": math.inf}, "horizon must be finite and positive"),
    ({"horizon": math.nan}, "horizon must be finite and positive"),
    ({"horizon": -1.0}, "horizon"),
])
def test_bad_certificate_arguments_exit_1_with_a_named_error(
        tmp_path, capsys, command, bad, message):
    # JSON Infinity and NaN pass the schema's exclusiveMinimum; the
    # certificate names them before numpy sees them
    scn = _write(tmp_path, f"{command}.json", {**RERUN_SCENARIOS[command], **bad})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "evaluation time" not in err


@pytest.mark.parametrize("horizons, message", [
    ([0.5, math.inf], "infinite_time_sup"),
    ([0.5, math.nan], "horizon must be finite and positive"),
])
def test_non_finite_adm_horizon_exits_1_with_a_named_error(
        tmp_path, capsys, horizons, message):
    # JSON Infinity and NaN pass the schema; the bounds name them before
    # numpy sees them, so no report holds a NaN lower bound
    scn = _write(tmp_path, "adm.json", {**ADM_SCENARIO, "horizons": horizons})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["adm", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "NaN" not in err


def test_certificate_violation_exits_2_with_dump(tmp_path, capsys):
    scn = _write(tmp_path, "iss.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0]]},
        "input_operator": {"kind": "aminus_x0", "x0": [1.0, 0.5]},
        "trials": 5,
        "adm_bound_override": 1e-5,
        "seed": 4,
    })
    out = tmp_path / "out"
    assert run("iss", scn, out=str(out)) == 2
    assert "VIOLATION" in capsys.readouterr().err
    dump = json.loads((out / "violation.dump.json").read_text())
    assert dump["command"] == "iss"
    assert dump["dump"]["violations"]
    assert not (out / "iss.report.json").exists()


def test_emit_plotdata_header_only(tmp_path):
    paths = emit_plotdata(tmp_path, [("empty.csv", "a,b", [])])
    assert paths[0].read_text() == "a,b\n"


def _row_oracle(row):
    """The row formula the column-wise writer replaced."""
    return ",".join(
        repr(float(c)) if isinstance(c, (int, float, np.floating)) else c for c in row
    )


def test_emit_plotdata_matches_the_row_formula_byte_for_byte(tmp_path):
    numbers = [0, 1, -7, 2**53 + 1, 2**63 + 12345, 3**40, np.float64(0.1),
               np.float64(1e-310), 5e-324, -0.0, np.float64(-0.0), np.inf, -np.inf,
               1.0 / 3.0, 1e22, 123456789.0, np.float64(2.5e-8)]
    n = len(numbers)
    words = [["Linf", "L2", "L1"][i % 3] for i in range(n)]
    flags = [str(i % 2 == 0) for i in range(n)]
    table = [
        range(n),
        numbers,
        np.asarray(numbers[::-1], dtype=float),
        words,
        [float(v) for v in numbers],
        flags,
    ]
    n_long = 2 * cli._CSV_ROWS + 1  # two full chunks and one row
    rng = np.random.default_rng(5)
    long_table = [
        range(n_long),
        rng.normal(size=n_long) * 10.0 ** rng.integers(-300, 300, n_long),
        [f"w{i}" for i in range(n_long)],
    ]
    emit_plotdata(tmp_path, [("mixed.csv", "a,b,c,d,e,f", table),
                             ("empty.csv", "a", [[]]),
                             ("long.csv", "i,x,w", long_table)])
    for name, header, cols in (("mixed.csv", "a,b,c,d,e,f", table),
                               ("long.csv", "i,x,w", long_table)):
        expected = "\n".join([header] + [_row_oracle(r) for r in zip(*cols)]) + "\n"
        assert (tmp_path / name).read_bytes() == expected.encode()
    assert (tmp_path / "empty.csv").read_text() == "a\n"


def test_counterexample_outputs_and_modes_flag(tmp_path):
    scn = _write(tmp_path, "ce.json", CE_SCENARIO)
    out = tmp_path / "out"
    assert run("counterexample", scn, out=str(out)) == 0
    rows = (out / "divergence.csv").read_text().splitlines()
    assert rows[0] == "M,S_M,theory"
    assert len(rows) == 101
    sm = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b > a for a, b in zip(sm, sm[1:]))
    assert (out / "intervals.csv").read_text().splitlines()[0] == "m,a,b"
    report = json.loads((out / "counterexample.report.json").read_text())
    assert report["results"]["S_final"] == pytest.approx(
        100 * 0.05695440411119535, rel=1e-12
    )
    small = tmp_path / "small"
    assert run("counterexample", scn, out=str(small), modes=7) == 0
    assert len((small / "divergence.csv").read_text().splitlines()) == 8


def test_counterexample_modes_below_a_checkpoint_exit_1(tmp_path, capsys):
    scn = _write(tmp_path, "ce.json", {**CE_SCENARIO, "checkpoints": [10, 50]})
    out = tmp_path / "out"
    assert main(["counterexample", "--scenario", scn, "--out", str(out),
                 "--modes", "20"]) == 1
    assert "checkpoint 50" in capsys.readouterr().err
    assert not (out / "counterexample.report.json").exists()


def test_counterexample_past_4096_modes_writes_log_spaced_oracle_rows(tmp_path):
    scn = _write(tmp_path, "ce.json", {"M": 100, "k_bound": 0.5})
    out = tmp_path / "out"
    assert run("counterexample", scn, out=str(out), modes=100_000, quiet=True) == 0
    report = json.loads((out / "counterexample.report.json").read_text())["results"]
    sigma = report["sigma"]
    oracle = np.cumsum(np.full(100_000, sigma))
    rows = (out / "divergence.csv").read_text().splitlines()
    assert rows[0] == "M,S_M,theory"
    assert len(rows) - 1 <= 4096 + len(report["checkpoints"]) + 1
    ms = [int(float(row.split(",")[0])) for row in rows[1:]]
    assert ms[0] == 1 and ms[-1] == 100_000
    assert all(b > a for a, b in zip(ms, ms[1:]))
    assert {int(m) for m in report["checkpoints"]} <= set(ms)
    for m, row in zip(ms, rows[1:]):
        assert row == f"{float(m)!r},{float(oracle[m - 1])!r},{m * sigma!r}"
    assert float(rows[-1].split(",")[1]) == report["S_final"]


@pytest.mark.parametrize(
    "body, cause",
    [
        ('{"M": 100, "k_bound": Infinity}', "k_bound must be finite, got inf"),
        ('{"M": 100, "k_bound": NaN}', "k_bound must be finite, got nan"),
        ('{"M": true}', "at '/M': True is not of type 'integer'"),
        ('{"M": 2.5}', "at '/M': 2.5 is not of type 'integer'"),
        ('{"M": 100, "checkpoints": [true]}', "at '/checkpoints/0': True is not"),
        ('{"M": 100, "checkpoints": [2.5]}', "at '/checkpoints/0': 2.5 is not"),
    ],
)
def test_counterexample_bad_inputs_exit_1_with_their_cause(tmp_path, capsys, body, cause):
    scn = _write(tmp_path, "ce.json", body)
    out = tmp_path / "out"
    assert main(["counterexample", "--scenario", scn, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err
    assert not (out / "counterexample.report.json").exists()


def test_counterexample_takes_integral_float_inputs(tmp_path):
    floats = _write(tmp_path, "f.json", {"M": 100.0, "checkpoints": [10.0, 100]})
    ints = _write(tmp_path, "i.json", {"M": 100, "checkpoints": [10, 100]})
    for scn, name in ((floats, "f"), (ints, "i")):
        assert run("counterexample", scn, out=str(tmp_path / name), quiet=True) == 0
    for name in ("divergence.csv", "intervals.csv"):
        assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "i" / name).read_bytes()
    report = json.loads((tmp_path / "f" / "counterexample.report.json").read_text())
    assert report["results"]["M"] == 100
    assert list(report["results"]["checkpoints"]) == ["10", "100"]


EXPLICIT_4 = [[-1.0, 0.0], [-2.0, 0.5], [-2.0, -0.5], [-5.0, 0.0]]


@pytest.mark.parametrize(
    "command, scenario",
    [
        ("simulate", {
            "generator": {"eigenvalues": EXPLICIT_4, "weights": [1.0, 0.5, 0.5, 2.0]},
            "input_operator": {
                "kind": "columns",
                "matrix": [[1.0, 0.0], [0.5, 0.2], [0.5, -0.2], [0.25, 1.0]],
            },
            "signal": {"kind": "random", "n_pieces": 4, "horizon": 1.0},
            "initial_state": [1.0, [0.0, 0.5], [0.0, -0.5], 0.3],
            "n_time_samples": 5,
            "seed": 3,
        }),
        ("adm", {
            "generator": {"eigenvalues": EXPLICIT_4},
            "input_operator": {"kind": "aminus_x0", "x0": [0.6, 0.48, 0.48, 0.64]},
            "horizons": [0.5, 2.0],
            "seed": 5,
        }),
        ("iiss", {
            "generator": {"eigenvalues": EXPLICIT_4},
            "x0": [1.0, 0.5, [0.0, 0.5], 0.25],
            "young": {"power": 2.0},
            "trials": 4,
            "seed": 7,
        }),
        ("adm", {
            "generator": {"kind": "ray", "base": -1.0, "exponent": 1.0, "angle": 0.3,
                          "count": 4, "weights": [1.0, 0.5, 2.0, 4.0]},
            "input_operator": {"kind": "aminus_x0", "x0": [0.6, 0.48, 0.48, 0.64]},
            "horizons": [0.5, 2.0],
            "seed": 5,
        }),
    ],
)
def test_modes_flag_truncates_every_per_mode_list(tmp_path, command, scenario):
    full = _write(tmp_path, "full.json", scenario)
    cut = dict(scenario, generator=dict(scenario["generator"]))
    if cut["generator"].get("kind") == "ray":
        cut["generator"]["count"] = 2
    else:
        cut["generator"]["eigenvalues"] = EXPLICIT_4[:2]
    if "weights" in cut["generator"]:
        cut["generator"]["weights"] = scenario["generator"]["weights"][:2]
    if "input_operator" in scenario:
        op = dict(scenario["input_operator"])
        key = "matrix" if op["kind"] == "columns" else "x0"
        op[key] = op[key][:2]
        cut["input_operator"] = op
    for key in ("x0", "initial_state"):
        if key in scenario:
            cut[key] = scenario[key][:2]
    by_hand = _write(tmp_path, "cut.json", cut)
    args = [command, "--quiet", "--out"]
    assert main(args + [str(tmp_path / "flag"), "--scenario", full, "--modes", "2"]) == 0
    assert main(args + [str(tmp_path / "hand"), "--scenario", by_hand]) == 0
    reports = [
        json.loads((tmp_path / d / f"{command}.report.json").read_text())
        for d in ("flag", "hand")
    ]
    assert reports[0]["results"] == reports[1]["results"]


def test_modes_flag_beyond_the_listed_eigenvalues_exits_1(tmp_path, capsys):
    scn = _write(tmp_path, "adm.json", ADM_SCENARIO)
    assert main(["adm", "--scenario", scn, "--modes", "4"]) == 1
    assert "exceeds the 3 listed eigenvalues" in capsys.readouterr().err


def test_zero_class_csv_monotone_t(tmp_path):
    scn = _write(tmp_path, "adm.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0], [-4.0, 0.0]]},
        "input_operator": {"kind": "columns", "matrix": [[1.0], [0.5], [0.25]]},
        "horizons": [1e-3, 1e-2, 1e-1, 1.0],
        "zero_class": True,
        "seed": 2,
    })
    out = tmp_path / "out"
    assert run("adm", scn, out=str(out)) == 0
    rows = (out / "zero_class.csv").read_text().splitlines()
    assert rows[0].startswith("t,")
    ts = [float(r.split(",")[0]) for r in rows[1:]]
    assert ts == sorted(ts) and len(ts) == 4


def test_admlab_out_env(tmp_path, monkeypatch):
    scn = _write(tmp_path, "ce.json", CE_SCENARIO)
    target = tmp_path / "from-env"
    monkeypatch.setenv("ADMLAB_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert run("counterexample", scn) == 0
    assert (target / "counterexample.report.json").exists()


def test_simulate_trajectory_csv(tmp_path):
    scn = _write(tmp_path, "sim.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-3.0, 0.0]]},
        "input_operator": {"kind": "columns", "matrix": [[1.0], [0.5]]},
        "signal": {
            "kind": "piecewise",
            "breakpoints": [0.0, 0.5, 1.0],
            "values": [1.0, [0.0, 1.0]],
        },
        "initial_state": [1.0, 0.0],
        "n_time_samples": 9,
    })
    out = tmp_path / "out"
    assert run("simulate", scn, out=str(out)) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,state_norm"
    t0, n0 = rows[1].split(",")
    assert float(t0) == 0.0 and float(n0) == 1.0  # ||x0||
    report = json.loads((out / "simulate.report.json").read_text())
    assert report["results"]["peak_norm"] >= 1.0


def test_simulate_runs_a_probe_against_the_closed_form(tmp_path):
    # x_n(t) = e^{lam t} x0_n + b_n a t e^{-mu t} h((lam + mu) t), h(w) = (e^w - 1)/w
    lam = np.array([-1.0 + 0.5j, -3.0, -0.2 + 4.0j])
    b = np.array([1.0, 0.5 + 0.25j, -0.75])
    x0 = np.array([1.0, 0.5j, 0.3])
    a, mu, horizon = 0.8 - 0.3j, -0.5 + 1.0j, 2.0
    scn = _write(tmp_path, "sim.json", {
        "generator": {"eigenvalues": [[z.real, z.imag] for z in lam]},
        "input_operator": {"kind": "columns", "matrix": [[[z.real, z.imag]] for z in b]},
        "signal": {"kind": "probe", "amplitude": [a.real, a.imag],
                   "mu": [mu.real, mu.imag], "horizon": horizon},
        "initial_state": [[z.real, z.imag] for z in x0],
        "n_time_samples": 9,
    })
    out = tmp_path / "out"
    assert run("simulate", scn, out=str(out)) == 0
    rows = [r.split(",") for r in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9
    for t_text, norm_text in rows:
        t = float(t_text)
        w = (lam + mu) * t
        h = np.where(w == 0.0, 1.0, np.expm1(w) / np.where(w == 0.0, 1.0, w))
        x = np.exp(lam * t) * x0 + b * a * t * np.exp(-mu * t) * h
        assert float(norm_text) == pytest.approx(np.linalg.norm(x), rel=1e-13)


def test_orlicz_norm_path(tmp_path):
    scn = _write(tmp_path, "norm.json", {
        "young": {"power": 2.0},
        "profile": {"kind": "samples", "edges": [0.0, 1.0], "values": [1.0]},
    })
    out = tmp_path / "out"
    assert run("orlicz-norm", scn, out=str(out)) == 0
    report = json.loads((out / "orlicz-norm.report.json").read_text())
    assert report["results"]["luxemburg_norm"] == pytest.approx(1.0, rel=1e-9)
    assert report["results"]["modular_at_norm"] <= 1.0 + 1e-8


# The benchmark's power/constant/power Young function.
SEGMENTS_YOUNG = {"segments": [
    {"x0": 0.0, "kind": "power", "c": 2.0, "r": 1.0},
    {"x0": 1.0, "kind": "const", "c": 3.0},
    {"x0": 2.0, "kind": "power", "c": 1.5, "r": 1.0},
]}


def _shift_scenario(tmp_path, coeff, exponent):
    profile = {"kind": "power", "coeff": coeff, "exponent": exponent}
    return _write(tmp_path, "shift.json", {"young": SEGMENTS_YOUNG, "profile": profile})


def test_shift_demo_with_a_crossing_below_the_double_range(tmp_path):
    # c s^a meets the last breakpoint at s = e^-595 for a = -0.00126: a level
    # walk from s = 1 underflows long before it gets there
    mp_oracle = pytest.importorskip("shift_oracle")
    scn = _shift_scenario(tmp_path, 0.945, -0.00126)
    out = tmp_path / "out"
    assert main(["shift-demo", "--scenario", scn, "--out", str(out), "--quiet"]) == 0
    res = json.loads((out / "shift-demo.report.json").read_text())["results"]
    assert not res["diverged"] and res["levels_scanned"] == 859
    segs = [(s["x0"], s["kind"], s["c"], s.get("r", 0.0)) for s in SEGMENTS_YOUNG["segments"]]
    assert res["modular"] == pytest.approx(mp_oracle.modular_mp(segs, 0.945, -0.00126),
                                           rel=1e-10)


@pytest.mark.parametrize("coeff, exponent, cause", [
    (math.nan, 0.5, "finite coeff and exponent, got nan and 0.5"),
    (math.inf, 0.5, "finite coeff and exponent, got inf and 0.5"),
    (-math.inf, 0.5, "scenario schema violation at '/profile'"),
    (0.5, math.nan, "finite coeff and exponent, got 0.5 and nan"),
    (0.5, math.inf, "finite coeff and exponent, got 0.5 and inf"),
    (0.5, -math.inf, "scenario schema violation at '/profile'"),
    (1e300, 0.5, "the modular of the power profile is finite but overflows double precision"),
])
def test_shift_demo_bad_power_profiles_exit_1_with_their_cause(
        tmp_path, capsys, coeff, exponent, cause):
    # JSON NaN and Infinity pass the schema's bounds (-Infinity does not);
    # shift_demo names them
    scn = _shift_scenario(tmp_path, coeff, exponent)
    out = tmp_path / "out"
    assert main(["shift-demo", "--scenario", scn, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err and "Traceback" not in err
    assert not (out / "shift-demo.report.json").exists()


def test_shift_demo_tiny_coefficient_reports_a_divergent_tail(tmp_path):
    # 1e-300 s^-1/2 ends in the x^2 segment: the tail diverges like log s
    scn = _shift_scenario(tmp_path, 1e-300, -0.5)
    out = tmp_path / "out"
    assert run("shift-demo", scn, out=str(out), quiet=True) == 0
    res = json.loads((out / "shift-demo.report.json").read_text())["results"]
    assert res["diverged"] and not res["orlicz_class_member"]
    assert res["modular"] == "inf" and res["escalation_levels"] == "inf"


def test_sqfct_path(tmp_path):
    scn = _write(tmp_path, "sq.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0]]},
    })
    out = tmp_path / "out"
    assert run("sqfct", scn, out=str(out)) == 0
    rows = (out / "sqfct.csv").read_text().splitlines()
    assert rows[0] == "mode,integral"
    assert len(rows) == 3
    report = json.loads((out / "sqfct.report.json").read_text())
    assert report["results"]["K_upper"] == pytest.approx(0.5, rel=1e-10)


def test_weiss_path(tmp_path):
    scn = _write(tmp_path, "w.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0]]},
        "input_operator": {"kind": "aminus_x0", "x0": [1.0]},
        "p": 2,
    })
    out = tmp_path / "out"
    assert run("weiss", scn, out=str(out)) == 0
    report = json.loads((out / "weiss.report.json").read_text())
    assert report["results"]["value"] == pytest.approx(2.0**-0.5, rel=1e-6)


def test_load_scenario_hash_matches_bytes(tmp_path):
    scn = _write(tmp_path, "x.json", CE_SCENARIO)
    data, digest = load_scenario(scn)
    assert data == CE_SCENARIO
    assert digest == hashlib.sha256((tmp_path / "x.json").read_bytes()).hexdigest()


def test_module_entry_point_subprocess(tmp_path):
    scn = _write(tmp_path, "ce.json", {"M": 20, "k_bound": 0.0})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "admlab", "counterexample", "--scenario", scn,
         "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "counterexample.report.json").exists()


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    assert main(["adm", "--scenario", str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_non_utf8_scenario_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["adm", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    (tmp_path / "latin1.json").write_bytes(b'{"out": "\xe9"}')
    with pytest.raises(ConfigError, match="latin1.json"):
        load_scenario(str(tmp_path / "latin1.json"))


def test_overflowing_probe_in_simulate_exits_1(tmp_path, capsys):
    scn = _write(tmp_path, "sim.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0]]},
        "input_operator": {"kind": "columns", "matrix": [[1.0], [0.5]]},
        "signal": {"kind": "probe", "amplitude": 1.0, "mu": -800, "horizon": 1.0},
    })
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "probe" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_simulate_exits_1_when_the_state_leaves_x(tmp_path, capsys):
    scn = _write(tmp_path, "sim.json", {
        "generator": {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.0]]},
        "input_operator": {"kind": "columns", "matrix": [[1e300], [0.5]]},
        "signal": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, -2.0]},
        "n_time_samples": 5,
    })
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="left X numerically") as caught:
        assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 1
    assert {w.filename for w in caught} == {cli.__file__}
    err = capsys.readouterr().err
    assert err == (
        "error: the state left X numerically at t = 0.25 under the piecewise signal\n")
    assert list(out.iterdir()) == []


BIG = 10**400  # a JSON integer literal beyond the float range
OVERFLOW = "scenario integer with 401 digits is beyond the float range"
TWO_MODES = {"eigenvalues": [[-1.0, 0.0], [-2.0, 0.5]]}
SIMULATE_2 = {
    "generator": TWO_MODES,
    "input_operator": {"kind": "aminus_x0", "x0": [1.0, 0.5]},
    "signal": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, -2.0]},
}


def _signal_values(values, matrix=None):
    scn = dict(SIMULATE_2, signal=dict(SIMULATE_2["signal"], values=values))
    if matrix is not None:
        scn["input_operator"] = {"kind": "columns", "matrix": matrix}
    return scn


@pytest.mark.parametrize(
    "command, scenario, cause",
    [
        ("sqfct", {"generator": {"eigenvalues": [-1, -BIG]}}, OVERFLOW),
        ("sqfct", {"generator": {"eigenvalues": [-1, -2], "weights": [1, BIG]}},
         OVERFLOW),
        ("sqfct", {"generator": {"eigenvalues": [-1, -2], "beta": [BIG, 0]}},
         OVERFLOW),
        ("sqfct", {"generator": {"kind": "ray", "base": -BIG, "exponent": 1.0,
                                 "angle": 0.0, "count": 3}}, OVERFLOW),
        ("weiss", {"generator": TWO_MODES,
                   "input_operator": {"kind": "aminus_x0", "x0": [1, [0, BIG]]}},
         OVERFLOW),
        ("simulate", dict(SIMULATE_2, initial_state=[BIG, 0]), OVERFLOW),
        ("simulate", _signal_values([1.0, [BIG, 0]]), OVERFLOW),
        ("weiss", {"generator": TWO_MODES,
                   "input_operator": {"kind": "columns", "matrix": [[1], [1, 2]]}},
         "input_operator/matrix has rows of lengths [1, 2]"),
        ("simulate", _signal_values([[1], [1, 2]]),
         "signal/values holds a list that is not an [re, im] pair"),
        ("simulate", _signal_values([[[1, 0]], 1]), "signal/values must be a list of rows"),
        ("simulate", _signal_values([[[1, 0], 2], [3]], [[1, 0], [0, 1]]),
         "signal/values has rows of lengths [1, 2]"),
        # 1e12 * 90**1e12 is beyond the float range, and far above the next
        # segment's density 246.25 at 90: the density decreases
        pytest.param("orlicz-norm", {
            "young": {"segments": [
                {"x0": 0, "kind": "power", "c": 1e12, "r": 1e12},
                {"x0": 90.0, "kind": "power", "c": 246.25, "r": 1e-308}]},
            "profile": {"kind": "samples", "edges": [0.0, 1.0], "values": [1.0]},
        }, "density must be nondecreasing", id="young-density-overflow"),
    ],
)
def test_schema_valid_but_unusable_numbers_exit_1_with_their_cause(
        tmp_path, capsys, command, scenario, cause):
    # each scenario passes the schema; its numbers hold no float array
    assert cli._validator().is_valid(json.loads(json.dumps(scenario)))
    scn = _write(tmp_path, "s.json", scenario)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err and "Traceback" not in err


# w_n |b_n|^2 overflows and the Gram's entries cancel as inf - inf: the NaN
# norms were dropped and the report read value 0.  The supremum is beyond the
# float range too, at every p (at 1e308 it fits at p = oo and 2:
# test_weiss_rows_whose_squares_overflow_print_the_supremum)
_NAN_GRAM = {"generator": {"eigenvalues": [-1, -2, -3]},
             "input_operator": {"kind": "columns", "matrix": [
                 [1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1, 1]]}}
# an infinite Gram entry made eigvalsh fail to converge; the row's norm is
# beyond the float range, so the supremum is too, at every p
_EIGVALSH_DIVERGES = {"generator": {"eigenvalues": [[-5e-324, 1.0]]},
                      "input_operator": {"kind": "columns", "matrix": [
                          [2.2250738585e-313, -1.5e308, [-1e308, -1e308]]]}}
# the row's squares overflow, and 1e308 / 5e-324 (p = oo) and 1e308 /
# sqrt(1e-323) (p = 2) are beyond the float range, though every evaluated
# point's norm is finite: only the one-mode closed form reads inf.  At p = 1
# the supremum is the row norm, 1e308, and is printed.
_SUBNORMAL_RE = {"generator": {"eigenvalues": [[-5e-324, 1.0]]},
                 "input_operator": {"kind": "columns", "matrix": [
                     [2.2250738585e-313, -1e308, [-0.5, -0.5]]]}}


@pytest.mark.parametrize(
    "scenario, p",
    [
        *((_NAN_GRAM, p) for p in ("inf", 2, 1)),
        *((_EIGVALSH_DIVERGES, p) for p in ("inf", 2, 1)),
        (_SUBNORMAL_RE, "inf"),
        (_SUBNORMAL_RE, 2),
        # the diagonal form's closed form |lambda| / |Re lambda| = 1 / 5e-324
        ({"generator": {"eigenvalues": [[-5e-324, 1.0]]},
          "input_operator": {"kind": "aminus_full"}}, "inf"),
    ],
    ids=["nan-gram-inf", "nan-gram-2", "nan-gram-1", "eigvalsh-diverges-inf",
         "eigvalsh-diverges-2", "eigvalsh-diverges-1", "subnormal-re-inf", "subnormal-re-2",
         "subnormal-re-closed-form"],
)
def test_weiss_squares_beyond_the_float_range_exit_1(tmp_path, capsys, scenario, p):
    # every route refuses a supremum beyond the float range the same way
    scenario = dict(scenario, p=p)
    assert cli._validator().is_valid(json.loads(json.dumps(scenario)))
    scn = _write(tmp_path, "s.json", scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["weiss", "--scenario", scn, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: a squared resolvent norm is beyond the float range\n"


@pytest.mark.parametrize(
    "eigenvalues, matrix, p",
    [
        ([-1, -2], [[1e160], [1]], "inf"),
        ([-1, -2], [[1e160], [1]], 2),
        ([-1, -2], [[1e160], [1]], 1),
        ([-1, -2, -3], [[1e308, -1e308], [-1e308, 1e308], [1, 1]], "inf"),
        ([-1, -2, -3], [[1e308, -1e308], [-1e308, 1e308], [1, 1]], 2),
        ([-5e-324 + 1j], [[2.2250738585e-313, -1e308, -0.5 - 0.5j]], 1),
    ],
    ids=["one-column-inf", "one-column-2", "one-column-1", "parallel-rows-inf",
         "parallel-rows-2", "subnormal-re-1"],
)
def test_weiss_rows_whose_squares_overflow_print_the_supremum(tmp_path, capsys, eigenvalues,
                                                              matrix, p):
    # the rows' squares overflow, the supremum does not: it is 2^1000 times
    # that of the rows times 2^-1000, whose squares fit (the scaling is exact).
    # At p = 1 the parallel rows' supremum, about 2e308, is beyond the range;
    # the subnormal-Re row's is beyond it at p = oo and 2, not at p = 1.
    scenario = {"generator": {"eigenvalues": eigenvalues}, "p": p,
                "input_operator": {"kind": "columns", "matrix": matrix}}
    scn = _write(tmp_path, "s.json", _json_ready(scenario))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["weiss", "--scenario", scn, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    got = json.loads((tmp_path / "o" / "weiss.report.json").read_text())["results"]
    A = DiagonalGenerator(eigenvalues)
    small = InputOperator.columns(np.array(matrix) * 2.0**-1000)
    want = weiss_check(A, small, math.inf if p == "inf" else p)
    assert got["value"] == pytest.approx(math.ldexp(want.value, 1000), rel=1e-15)
    assert got["closed_form"] == pytest.approx(math.ldexp(want.closed_form, 1000), rel=1e-15)


def test_json_ready_refuses_nan_and_names_the_key():
    with pytest.raises(ConfigError, match="'/results/reports/1/lower'"):
        _json_ready({"reports": [{"lower": 1.0}, {"lower": float("nan")}]}, "/results")
    with pytest.raises(ConfigError, match="'/dump/z/0'"):
        _json_ready({"z": np.array([complex(1.0, float("nan"))])}, "/dump")
    assert _json_ready({"a": np.array([1.0, np.inf])}) == {"a": [1.0, "inf"]}
    assert _json_ready(complex(-np.inf, 2.0)) == ["-inf", 2.0]  # not bare -Infinity


def test_a_ray_count_beyond_memory_exits_1_naming_the_count(tmp_path, capsys):
    # 10**17 modes need 800 PB, more than any address space holds, so the
    # allocation fails at once wherever the test runs
    scn = _write(tmp_path, "sq.json", {"generator": {
        "kind": "ray", "base": -1.0, "exponent": 1.5, "angle": 0.4, "count": 10**17}})
    assert main(["sqfct", "--scenario", scn, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ray count {10**17} does not fit in memory\n"


def test_a_sample_count_beyond_memory_exits_1_naming_the_count(tmp_path, capsys):
    # 10**17 samples need 800 PB, so numpy refuses the time grid at once
    scenario = json.loads((GOLDEN / "simulate-columns" / "scenario.json").read_text())
    scenario["n_time_samples"] = 10**17
    scn = _write(tmp_path, "sim.json", scenario)
    assert main(["simulate", "--scenario", scn, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: n_time_samples {10**17} does not fit in memory\n"


def test_probe_boundedness_takes_a_weighted_probe_rule(tmp_path):
    # the probe value max|e^{lambda t} - 1| does not depend on the weights,
    # so the weighted rule gives the unweighted rows at every truncation
    rule = {"kind": "ray", "base": -0.8, "exponent": 1.0, "angle": 0.6, "count": 2}
    reports = []
    for extra in ({}, {"weights": [1.0, 1.0]}, {"weights": [3.0, 0.5]}):
        scn = _write(tmp_path, "probe.json", {
            "probe_rule": {**rule, **extra}, "Ns": [2, 4], "t_grid": [0.01, 0.1]})
        out = tmp_path / f"out{len(reports)}"
        assert main(["probe-boundedness", "--scenario", scn, "--out", str(out),
                     "--quiet"]) == 0
        report = json.loads((out / "probe-boundedness.report.json").read_text())
        reports.append((report["results"], (out / "probe.csv").read_bytes()))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert [r["N"] for r in reports[0][0]["rows"]] == [2, 2, 2, 4, 4, 4]


@pytest.mark.parametrize("golden, key, value, cause", [
    # the phase-search Grams of 10**7 pieces need 1.42 PiB
    pytest.param("adm-columns-zero-class", "n_pieces", 10**7,
                 f"n_pieces {10**7}", id="adm-pieces"),
    # 10**15 random breakpoints need 7.11 PiB
    pytest.param("simulate-columns", "signal/n_pieces", 10**15,
                 f"n_pieces {10**15} x channels 3", id="random-pieces"),
    # 7 pieces of 10**17 random channels need 5.6 EB
    pytest.param("simulate-columns", "signal/channels", 10**17,
                 f"n_pieces 7 x channels {10**17}", id="random-channels"),
    # numpy refuses 2^62 float64 samples with a ValueError, and a count past
    # the int64 range with an IndexError
    pytest.param("simulate-columns", "n_time_samples", 2**62,
                 f"n_time_samples {2**62}", id="samples-2^62"),
    pytest.param("simulate-columns", "n_time_samples", 2**63 + 5,
                 f"n_time_samples {2**63 + 5}", id="samples-2^63+5"),
])
def test_sizes_beyond_memory_exit_1_naming_the_size(tmp_path, capsys, golden, key, value, cause):
    # every size is beyond any address space, so numpy refuses it at once
    scenario = json.loads((GOLDEN / golden / "scenario.json").read_text())
    *path, last = key.split("/")
    obj = scenario
    for part in path:
        obj = obj[part]
    obj[last] = value
    assert cli._validator().is_valid(scenario)
    scn = _write(tmp_path, "s.json", scenario)
    command = golden.split("-")[0]
    assert main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cause} does not fit in memory\n"


def test_a_density_whose_power_alone_overflows_is_accepted(tmp_path):
    # 1e-300 * 100**200 = 1e100 lies below the next segment's 3e100 although
    # 100**200 alone overflows: the density is nondecreasing, and only a
    # power taken in logs sees it.  Phi(x) = 1e-300 x**201 / 201 below 100,
    # so the norm of f = 1 on [0, 1] is (201e300)**(-1/201).
    scn = _write(tmp_path, "norm.json", {
        "young": {"segments": [{"x0": 0, "kind": "power", "c": 1e-300, "r": 200},
                               {"x0": 100.0, "kind": "const", "c": 3e100}]},
        "profile": {"kind": "samples", "edges": [0, 1], "values": [1]},
    })
    out = tmp_path / "out"
    assert main(["orlicz-norm", "--scenario", scn, "--out", str(out), "--quiet"]) == 0
    res = json.loads((out / "orlicz-norm.report.json").read_text())["results"]
    assert res["luxemburg_norm"] == pytest.approx(201e300 ** (-1 / 201), rel=1e-10)


def test_a_power_young_tail_integral_past_the_float_range_prints_the_norm(tmp_path):
    # Phi(x) = 1e-308 x**1e300 is 1e-308 at x = 1 and inf past it, so the
    # norm of f = 1 (with its tail) is 1; the tail integral overflows in
    # expo**2 on the way
    scn = _write(tmp_path, "norm.json", {
        "young": {"power": 1e300, "scale": 1e-308},
        "profile": {"kind": "samples", "edges": [0, 1], "values": [1], "tail_rate": 1e308},
    })
    out = tmp_path / "out"
    assert main(["orlicz-norm", "--scenario", scn, "--out", str(out), "--quiet"]) == 0
    res = json.loads((out / "orlicz-norm.report.json").read_text())["results"]
    assert res["luxemburg_norm"] == pytest.approx(1.0, rel=1e-10)
    assert res["modular_at_norm"] <= 1.0
