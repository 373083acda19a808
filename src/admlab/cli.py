"""Scenario-driven command-line front end.

Ten subcommands (``orlicz-norm``, ``simulate``, ``adm``, ``weiss``, ``sqfct``,
``counterexample``, ``iss``, ``iiss``, ``shift-demo``, ``probe-boundedness``)
each read one JSON scenario file, run the matching computation, and write a
JSON report plus flat CSV plot data into the output directory.  Exit codes:
0 success, 1 configuration error (bad flags, malformed or schema-invalid
scenario, inconsistent cross-references), 2 certificate violation or numeric
non-convergence (a dump file is written alongside the report).

Reports are reproducible byte for byte: sorted keys, no timestamps, the
scenario content hash and package version embedded, all randomness behind the
mandatory seed.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import is_dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from ._quad import QuadratureError
from .admissibility import (
    AdmissibilityError,
    CertificateViolation,
    InputOperator,
    _Stepper,
    _linfty_reports,
    zero_class_profile,
)
from .certify import (
    CertifyError,
    boundedness_probe,
    counterexample_run,
    iiss_certificate,
    iss_certificate,
    shift_demo,
    sqfct_constants,
    weiss_check,
)
from .orlicz import (
    BracketError,
    OrliczError,
    SampledFunction,
    luxemburg_norm,
    modular,
    power_young,
    young_from_json,
)
from .signals import PiecewiseSignal, SignalError, random_signal
from .spectral import (
    ConfigError,
    DiagonalGenerator,
    SpectralError,
    SpectralVector,
    _decode,
    _weighted_norm,
    generator_from_json,
    space_norm,
)

_SEEDED = {"adm", "iss", "iiss"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """The scenario schema's validator, built once per process on first use."""
    text = resources.files("admlab").joinpath("scenario.schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


# The large numeric arrays, each with its schema type, and the objects that
# hold some of them.  Each decodes once; once decoded, the schema sees a
# one-entry stand-in in its place, valid where the array is.
_ARRAYS = {"eigenvalues": "cvec", "weights": "weights", "matrix": "matrix",
           "x0": "cvec", "initial_state": "cvec"}
_HOLDERS = ("generator", "probe_rule", "input_operator")


def _schema_doc(obj: dict) -> tuple[dict, dict]:
    """Two shallow copies of ``obj``: one with its large arrays decoded, and
    the one the schema checks, with each decoded array cut to a stand-in.  An
    array that does not decode stays a list in both, for the schema to judge,
    so the schema accepts the second copy exactly when it accepts ``obj``."""
    arrays, doc = dict(obj), dict(obj)
    for key, value in obj.items():
        if key in _HOLDERS and type(value) is dict:
            arrays[key], doc[key] = _schema_doc(value)
        elif key in _ARRAYS:
            try:
                arrays[key] = _decode(value, key, _ARRAYS[key])
            except ConfigError:
                continue
            doc[key] = [[1]] if _ARRAYS[key] == "matrix" else [1]
    return arrays, doc


def _json_int(text: str) -> int:
    """A JSON integer literal.  One that overflows a float is refused here, so
    that no scenario number can overflow on its way to a float."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ConfigError(
            f"scenario integer with {len(text.lstrip('-'))} digits is beyond the float range"
        ) from None
    return value


def load_scenario(path: str) -> tuple[dict, str]:
    """Parse + schema-validate a scenario file; returns (dict, sha256 hash).

    The large arrays are decoded once, here, and the returned dict holds them
    as numpy arrays (:func:`admlab.spectral._decode`).  The schema sees the
    document with each decoded array cut to a stand-in (:func:`_schema_doc`);
    only when that fails is the full document validated, so that the error
    reported is the schema's own first error.  An integer beyond the float
    range is refused while parsing.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        scn = json.loads(raw, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid UTF-8: {exc}") from exc
    validator = _validator()
    arrays, doc = _schema_doc(scn) if isinstance(scn, dict) else (None, scn)
    if arrays is None or not validator.is_valid(doc):
        errors = sorted(validator.iter_errors(scn), key=lambda e: list(e.absolute_path))
        if errors:
            e = errors[0]
            pointer = "/" + "/".join(str(part) for part in e.absolute_path)
            raise ConfigError(f"scenario schema violation at {pointer!r}: {e.message}")
    if arrays is None:
        raise ConfigError("scenario must be a JSON object")
    return arrays, digest


def _need(scn: dict, key: str, command: str):
    if key not in scn:
        raise ConfigError(f"scenario key '{key}' is required for {command}")
    return scn[key]


def _generator(scn: dict, command: str) -> DiagonalGenerator:
    return generator_from_json(_need(scn, "generator", command))


def _truncate_modes(scn: dict, modes: int) -> dict:
    """The scenario with ``modes`` modes: a ray gets that count, and every
    per-mode array (eigenvalues, weights, matrix rows, x0, initial_state),
    decoded or still a list, is cut to its first ``modes`` entries."""
    gen = dict(scn["generator"])
    if gen.get("kind") == "ray":
        gen["count"] = modes
    else:
        eig = gen.get("eigenvalues", [])
        if modes > len(eig):
            raise ConfigError(f"--modes {modes} exceeds the {len(eig)} listed eigenvalues")
        gen["eigenvalues"] = eig[:modes]
    if "weights" in gen:
        gen["weights"] = gen["weights"][:modes]
    out = dict(scn, generator=gen)
    if "input_operator" in scn:
        op = dict(scn["input_operator"])
        for key in ("matrix", "x0"):
            if key in op:
                op[key] = op[key][:modes]
        out["input_operator"] = op
    for key in ("x0", "initial_state"):
        if key in scn:
            out[key] = scn[key][:modes]
    return out


def _per_mode(arr, what: str, A: DiagonalGenerator, kind: str = "cvec") -> np.ndarray:
    """``arr`` decoded, with one entry (one row, for a matrix) per mode of ``A``."""
    out = _decode(arr, what, kind)
    if len(out) != A.n_modes:
        raise ConfigError(f"{what} has length {len(out)} for {A.n_modes} modes")
    return out


def _input_operator(scn: dict, A: DiagonalGenerator, command: str) -> InputOperator:
    obj = _need(scn, "input_operator", command)
    kind = obj["kind"]
    if kind == "columns":
        if "matrix" not in obj:
            raise ConfigError("input_operator kind 'columns' needs key 'matrix'")
        return InputOperator.columns(
            _per_mode(obj["matrix"], "input_operator/matrix", A, "matrix")
        )
    if kind == "aminus_x0":
        if "x0" not in obj:
            raise ConfigError("input_operator kind 'aminus_x0' needs key 'x0'")
        return InputOperator.aminus_x0(_per_mode(obj["x0"], "input_operator/x0", A))
    return InputOperator.aminus_full()


def _young(scn: dict, command: str):
    obj = _need(scn, "young", command)
    if "power" in obj:
        return power_young(float(obj["power"]), float(obj.get("scale", 1.0)))
    return young_from_json(obj)


def _profile(scn: dict, command: str):
    obj = _need(scn, "profile", command)
    if obj["kind"] == "samples":
        return SampledFunction(obj["edges"], obj["values"], obj.get("tail_rate"))
    return {"kind": "power", "coeff": obj["coeff"], "exponent": obj["exponent"]}


def _signal(scn: dict, command: str, seed: int | None, n_channels: int) -> PiecewiseSignal:
    obj = _need(scn, "signal", command)
    kind = obj.get("kind", "piecewise")
    if kind == "probe":
        return PiecewiseSignal(
            [0.0, float(obj["horizon"])],
            _decode([obj["amplitude"]], "signal/amplitude"),
            "probe",
            probe_mu=_decode([obj.get("mu", 0.0)], "signal/mu")[0],
        )
    if kind == "random":
        if seed is None:
            raise ConfigError("a random signal needs a seed (--seed or scenario key)")
        horizon = float(obj.get("horizon", scn.get("horizon", 1.0)))
        return random_signal(
            np.random.default_rng(seed),
            horizon,
            int(obj["n_pieces"]),
            n_channels=int(obj.get("channels", n_channels)),
            amplitude=float(obj.get("amplitude", 1.0)),
        )
    # per-piece channel rows when the first entry's first item is a list
    vals = obj["values"]
    rows = vals and isinstance(vals[0], list) and vals[0] and isinstance(vals[0][0], list)
    values = _decode(vals, "signal/values", "matrix" if rows else "cvec")
    return PiecewiseSignal(obj["breakpoints"], values)


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

_CSV_ROWS = 4096  # rows formatted and written at a time (about 1 MB of cells)


def _write_atomic(path: Path, parts: Iterable[str]) -> None:
    """Write the text ``parts`` to a temporary file, then rename it to ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"while writing {path}: {exc}") from exc


def _csv_cells(column) -> Iterable[str]:
    """One CSV column as text: a column of ``str`` as it is, any numeric
    column as ``repr(float(c))`` of each entry, converted in one numpy pass."""
    if len(column) and isinstance(column[0], str):
        return column
    return map(repr, np.asarray(column, dtype=float).tolist())


def _csv_text(header: str, columns: list) -> Iterator[str]:
    """The CSV's text: the header line, then the rows ``_CSV_ROWS`` at a time."""
    yield header + "\n"
    n_rows = min(map(len, columns), default=0)
    for lo in range(0, n_rows, _CSV_ROWS):
        cells = [_csv_cells(column[lo : lo + _CSV_ROWS]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def emit_plotdata(outdir: Path, jobs: list[tuple[str, str, list]]) -> list[Path]:
    """Write one CSV per curve: (filename, header, columns).

    ``columns`` lists the table column by column (equal lengths; arrays,
    lists or ranges).  Numeric cells are written as ``repr(float(c))``, so
    ints, numpy floats, ``inf`` and ``-0.0`` print as Python floats do.  An
    empty table still produces the header line, so downstream plotting sees
    a well-formed file.  Rows are formatted and written ``_CSV_ROWS`` at a
    time, so memory does not grow with the table."""
    paths = []
    for name, header, columns in jobs:
        path = outdir / name
        _write_atomic(path, _csv_text(header, columns))
        paths.append(path)
    return paths


def _json_ready(value, path: str = ""):
    """``value`` as plain JSON data, the one place a report number is
    formatted: inf becomes "inf"/"-inf", a NaN anywhere is a ConfigError
    naming its key path (``path`` is the prefix), and a report dataclass
    becomes the dict of its fields, less any that are None."""
    if isinstance(value, dict):
        return {str(k): _json_ready(v, f"{path}/{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v, f"{path}/{i}") for i, v in enumerate(value)]
    if isinstance(value, np.ndarray):
        return _json_ready(value.tolist(), path)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            raise ConfigError(f"refusing to write NaN at {path!r}")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return [_json_ready(value.real, path), _json_ready(value.imag, path)]
    if is_dataclass(value):
        return _json_ready({k: v for k, v in vars(value).items() if v is not None}, path)
    return value


def _report_text(command, scenario_hash, seed, results) -> str:
    envelope = {
        "command": command,
        "scenario_hash": scenario_hash,
        "version": __version__,
        "seed": seed,
        "results": _json_ready(results, "/results"),
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Command handlers: each returns (results, csv_jobs, summary_lines); a CSV job
# is (filename, header, columns), see emit_plotdata.
# ---------------------------------------------------------------------------


def _cmd_orlicz_norm(scn, seed, modes):
    phi = _young(scn, "orlicz-norm")
    f = _profile(scn, "orlicz-norm")
    if not isinstance(f, SampledFunction):
        raise ConfigError("orlicz-norm expects a sampled profile")
    norm = luxemburg_norm(phi, f)
    results = {
        "luxemburg_norm": norm,
        "modular_at_norm": modular(phi, f, norm) if norm > 0.0 else 0.0,
    }
    return results, [], [f"orlicz-norm: ||f|| = {norm:.12g}"]


def _cmd_simulate(scn, seed, modes):
    A = _generator(scn, "simulate")
    B = _input_operator(scn, A, "simulate")
    u = _signal(scn, "simulate", seed, B.n_inputs(A))
    horizon = float(scn.get("horizon", u.horizon))
    if horizon > u.horizon:
        raise ConfigError("scenario horizon exceeds the signal window")
    if "initial_state" in scn:
        x0c = _per_mode(scn["initial_state"], "initial_state", A)
    else:
        x0c = np.zeros(A.n_modes, dtype=complex)
    x0 = SpectralVector(x0c, "X")
    n = int(scn.get("n_time_samples", 33))
    try:
        ts = np.linspace(0.0, horizon, n)
    except (MemoryError, ValueError, IndexError) as exc:  # numpy's, past any address space
        raise ConfigError(f"n_time_samples {n} does not fit in memory") from exc
    norms = [space_norm(A, x0)]
    for t, (x, left) in zip(ts[1:], _Stepper(A, B, ts[1:]).paths([x0.coefficients], [u])):
        if left:
            raise SignalError(
                f"the state left X numerically at t = {float(t)!r} "
                f"under the {u.kind} signal"
            )
        norms.append(_weighted_norm(A.weights, x))
    results = {
        "horizon": horizon,
        "n_time_samples": n,
        "initial_norm": norms[0],
        "final_norm": norms[-1],
        "peak_norm": max(norms),
    }
    jobs = [("trajectory.csv", "t,state_norm", [ts, norms])]
    return results, jobs, [
        f"simulate: ||x({horizon:g})|| = {norms[-1]:.12g} (peak {max(norms):.12g})"
    ]


def _cmd_adm(scn, seed, modes):
    A = _generator(scn, "adm")
    B = _input_operator(scn, A, "adm")
    horizons = sorted(float(t) for t in _need(scn, "horizons", "adm"))
    n_pieces = int(scn.get("n_pieces", 16))
    reports = _linfty_reports(A, B, horizons, n_pieces, seed)[0]
    columns = list(zip(*((r.t, r.space, r.lower, r.upper, r.route) for r in reports)))
    jobs = [("admissibility.csv", "t,Z,lower,upper,route", columns)]
    lines = [
        f"adm: t={r.t:g} lower={r.lower:.6g} upper={r.upper:.6g} route={r.route}"
        for r in reports
    ]
    results = {"reports": reports}
    if scn.get("zero_class"):
        zreports, flags = zero_class_profile(A, B, horizons, seed=seed)
        results["zero_class"] = flags
        columns = list(zip(*((r.t, r.lower) for r in zreports)))
        jobs.append(("zero_class.csv", "t,lower", columns))
        lines.append(
            "adm: zero-class plausible={zero_class_plausible} "
            "obstructed={obstructed}".format(**flags)
        )
    return results, jobs, lines


def _cmd_weiss(scn, seed, modes):
    A = _generator(scn, "weiss")
    B = _input_operator(scn, A, "weiss")
    rep = weiss_check(A, B, scn.get("p", "inf"))
    return (
        rep,
        [],
        [
            f"weiss: p={scn.get('p', 'inf')} value={rep.value:.12g} "
            f"closed-form={rep.closed_form:.12g} route={rep.route}"
        ],
    )


def _cmd_sqfct(scn, seed, modes):
    A = _generator(scn, "sqfct")
    rep = sqfct_constants(A)
    results = dict(vars(rep), per_mode=rep.per_mode[:16])  # full table lives in the CSV
    jobs = [("sqfct.csv", "mode,integral", [range(len(rep.per_mode)), rep.per_mode])]
    line = (
        f"sqfct: k={rep.k_lower:.12g} K={rep.K_upper:.12g} "
        f"(quad err {rep.quad_max_rel_err:.2e})"
    )
    return results, jobs, [line]


def _cmd_counterexample(scn, seed, modes):
    M = int(_need(scn, "M", "counterexample"))
    if modes is not None:
        M = modes
    k = float(scn.get("k_bound", 0.0))
    res = counterexample_run(k, M, scn.get("checkpoints"))
    rows = res.pop("rows")
    jobs = [
        ("divergence.csv", "M,S_M,theory", [rows["m"], rows["S_m"], rows["theory"]]),
        ("intervals.csv", "m,a,b", list(zip(*res.pop("intervals_head")))),
    ]
    s_final = float(rows["S_m"][-1])
    res["S_final"] = s_final
    line = (
        f"counterexample: M={M} S_M={s_final:.12g} theory={M * res['sigma']:.12g} "
        f"per-column={res['per_column_upper']:.6g} weiss={res['weiss']['value']:.6g}"
    )
    return res, jobs, [line]


def _cmd_iss(scn, seed, modes):
    A = _generator(scn, "iss")
    B = _input_operator(scn, A, "iss")
    res = iss_certificate(
        A,
        B,
        n_trials=scn.get("trials", 100),
        horizon=scn.get("horizon"),
        seed=seed,
        adm_bound_override=scn.get("adm_bound_override"),
    )
    line = (
        f"iss: trials={res['n_trials']} max_ratio={res['max_ratio']:.6g} "
        f"violations={len(res['violations'])} mu_slope={res['bundle']['mu_slope']:.6g}"
    )
    return res, [], [line]


def _cmd_iiss(scn, seed, modes):
    A = _generator(scn, "iiss")
    x0 = _per_mode(_need(scn, "x0", "iiss"), "x0", A)
    psi = _young(scn, "iiss")
    res = iiss_certificate(
        A,
        x0,
        psi,
        n_trials=scn.get("trials", 50),
        horizon=scn.get("horizon"),
        seed=seed,
    )
    line = (
        f"iiss: trials={res['n_trials']} max_ratio={res['max_ratio']:.6g} "
        f"violations={len(res['violations'])} C={res['bundle']['C']:.6g}"
    )
    return res, [], [line]


def _cmd_shift_demo(scn, seed, modes):
    phi = _young(scn, "shift-demo")
    f = _profile(scn, "shift-demo")
    res = shift_demo(f, phi)
    line = (
        f"shift-demo: l1={res['l1']:.12g} "
        f"modular={res['modular']:.12g} "
        f"diverged={res['diverged']}"
    )
    return res, [], [line]


def _cmd_probe(scn, seed, modes):
    rule = _need(scn, "probe_rule", "probe-boundedness")
    Ns = [int(n) for n in _need(scn, "Ns", "probe-boundedness")]
    if modes is not None:
        Ns = [n for n in Ns if n <= modes] or [modes]
    t_grid = [float(t) for t in _need(scn, "t_grid", "probe-boundedness")]
    res = boundedness_probe(rule, Ns, t_grid)
    columns = list(zip(*(
        (r["N"], r["t"], r["value"], str(r["scale_matched"])) for r in res["rows"]
    )))
    jobs = [("probe.csv", "N,t,value,scale_matched", columns)]
    line = (
        f"probe-boundedness: uniform_floor={res['uniform_floor']} "
        f"degrades={res['zero_class_degrades']}"
    )
    return res, jobs, [line]


# Commands whose --modes truncates the scenario's generator and per-mode data.
_PER_MODE = {"simulate", "adm", "weiss", "sqfct", "iss", "iiss"}

_HANDLERS = {
    "orlicz-norm": _cmd_orlicz_norm,
    "simulate": _cmd_simulate,
    "adm": _cmd_adm,
    "weiss": _cmd_weiss,
    "sqfct": _cmd_sqfct,
    "counterexample": _cmd_counterexample,
    "iss": _cmd_iss,
    "iiss": _cmd_iiss,
    "shift-demo": _cmd_shift_demo,
    "probe-boundedness": _cmd_probe,
}
COMMANDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="admlab",
        description="Orlicz-space admissibility laboratory for diagonal systems",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        cp = sub.add_parser(name, help=f"run the {name} computation")
        cp.add_argument("--scenario", required=True, help="scenario JSON path")
        cp.add_argument("--out", default=None, help="output directory")
        cp.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
        cp.add_argument(
            "--modes", type=int, default=None, help="override the mode count"
        )
        cp.add_argument("--quiet", action="store_true", help="suppress summaries")
    return parser


def run(command: str, scenario_path: str, out=None, seed=None, modes=None,
        quiet=False) -> int:
    """Dispatch one command against one scenario; returns the exit code."""
    if command not in _HANDLERS:
        raise ConfigError(
            f"unknown command {command!r} (choose from {', '.join(COMMANDS)})"
        )
    scn, digest = load_scenario(scenario_path)
    if seed is None:
        seed = scn.get("seed")
    if seed is None and command in _SEEDED:
        raise ConfigError(
            f"{command} is randomized: provide --seed or a scenario 'seed' key"
        )
    if modes is not None and modes < 1:
        raise ConfigError("--modes must be a positive integer")
    if modes is not None and "generator" in scn and command in _PER_MODE:
        scn = _truncate_modes(scn, modes)
    outdir = Path(out or scn.get("out") or os.environ.get("ADMLAB_OUT") or "admlab-out")
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        results, jobs, lines = _HANDLERS[command](scn, seed, modes)
    except (CertificateViolation, QuadratureError, BracketError) as exc:
        dump = {
            "command": command,
            "scenario_hash": digest,
            "version": __version__,
            "seed": seed,
            "error": str(exc),
            "dump": _json_ready(getattr(exc, "dump", {}), "/dump"),
        }
        _write_atomic(
            outdir / "violation.dump.json",
            [json.dumps(dump, sort_keys=True, indent=2) + "\n"],
        )
        print(f"{command}: VIOLATION: {exc}", file=sys.stderr)
        print(f"dump written to {outdir / 'violation.dump.json'}", file=sys.stderr)
        return 2
    report = _report_text(command, digest, seed, results)
    _write_atomic(outdir / f"{command}.report.json", [report])
    emit_plotdata(outdir, jobs)
    if not quiet:
        for line in lines:
            print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no command given (try `admlab --help`)")
        return run(
            args.command,
            args.scenario,
            out=args.out,
            seed=args.seed,
            modes=args.modes,
            quiet=args.quiet,
        )
    except (
        ConfigError,
        SpectralError,
        SignalError,
        OrliczError,
        AdmissibilityError,
        CertifyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
