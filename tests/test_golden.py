"""Golden reports: every deterministic command, byte-compared with committed output.

Each case directory under ``tests/golden/`` holds a ``scenario.json`` and the
files one ``cli.run`` of it wrote (the report and its CSVs, or the violation
dump).  The test reruns the command on the committed scenario and compares
every file byte for byte, so a refactor that moves a printed number in its
last bit fails here.  ``counterexample`` is left out: its report embeds
``runtime_s``.

Regenerate the golden files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py

Before it overwrites anything, the script prints one line per changed file:
how many numbers moved, the largest relative move, and a flag when bytes
outside a number changed too (or a file appeared or vanished).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from admlab.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _pairs(z):
    return [[float(v.real), float(v.imag)] for v in np.asarray(z, dtype=complex)]


def _scenarios() -> dict[str, tuple[str, dict]]:
    """case name -> (command, scenario); all data drawn from one seeded RNG."""
    rng = np.random.default_rng(20261018)

    def cnormal(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def spectrum(n):
        re = -np.sort(rng.uniform(0.5, 40.0, n))
        return re + 1j * rng.uniform(-1.0, 1.0, n) * np.abs(re)

    k = np.arange(1, 49)
    lam48 = spectrum(48)
    x0_48 = cnormal(48) / k
    cols48 = cnormal((48, 3)) / k[:, None] ** 1.5
    lam16 = spectrum(16)
    x0_16 = cnormal(16) / np.arange(1, 17)
    segments = {"segments": [
        {"x0": 0.0, "kind": "power", "c": 2.0, "r": 1.0},
        {"x0": 1.0, "kind": "const", "c": 3.0},
        {"x0": 2.0, "kind": "power", "c": 1.5, "r": 1.0},
    ]}
    ray = {"kind": "ray", "base": -1.0, "exponent": 1.5, "angle": 0.4, "count": 32}
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 24))])
    samples = {"kind": "samples", "edges": edges.tolist(),
               "values": rng.uniform(0.0, 3.0, 24).tolist()}
    unit = np.sort(rng.uniform(0.0, 1.0, 15))
    unit_edges = np.concatenate([[0.0], unit, [1.0]])
    x0_op = {"kind": "aminus_x0", "x0": _pairs(x0_48)}
    cols_op = {"kind": "columns", "matrix": [_pairs(r) for r in cols48]}
    explicit48 = {"eigenvalues": _pairs(lam48)}
    return {
        "orlicz-norm-power": ("orlicz-norm", {
            "young": {"power": 3.0, "scale": 0.5}, "profile": samples}),
        "orlicz-norm-segments-tail": ("orlicz-norm", {
            "young": segments, "profile": {**samples, "tail_rate": 0.7}}),
        "simulate-columns": ("simulate", {
            "generator": explicit48,
            "input_operator": cols_op,
            "signal": {"kind": "random", "n_pieces": 7, "amplitude": 2.0, "horizon": 3.0},
            "initial_state": _pairs(cnormal(48) / k),
            "n_time_samples": 17,
            "seed": 5,
        }),
        "simulate-aminus-x0": ("simulate", {
            "generator": ray,
            "input_operator": {"kind": "aminus_x0",
                               "x0": _pairs(cnormal(32) / np.arange(1, 33))},
            "signal": {"breakpoints": [0.0, 0.3, 1.1, 2.0],
                       "values": [[1.0, 0.5], -0.75, [0.0, 2.0]]},
        }),
        "adm-aminus-x0-zero-class": ("adm", {
            "generator": explicit48, "input_operator": x0_op,
            "horizons": [0.01, 0.1, 1.0], "n_pieces": 6, "zero_class": True, "seed": 3,
        }),
        "adm-columns-zero-class": ("adm", {
            "generator": explicit48, "input_operator": cols_op,
            "horizons": [0.02, 0.2, 2.0], "n_pieces": 6, "zero_class": True, "seed": 4,
        }),
        "adm-aminus-full": ("adm", {
            "generator": {"eigenvalues": _pairs(lam16)},
            "input_operator": {"kind": "aminus_full"},
            "horizons": [0.05, 0.5], "zero_class": True, "seed": 1,
        }),
        "weiss-aminus-x0-inf": ("weiss", {
            "generator": explicit48, "input_operator": x0_op, "p": "inf"}),
        "weiss-columns-2": ("weiss", {
            "generator": explicit48, "input_operator": cols_op, "p": 2}),
        "weiss-ray-full-1": ("weiss", {
            "generator": ray, "input_operator": {"kind": "aminus_full"}, "p": 1}),
        "sqfct-ray": ("sqfct", {"generator": ray}),
        "iss-aminus-x0": ("iss", {
            "generator": explicit48, "input_operator": x0_op, "trials": 12, "seed": 7}),
        "iss-columns": ("iss", {
            "generator": explicit48, "input_operator": cols_op, "trials": 12,
            "horizon": 2.5, "seed": 8}),
        "iss-one-column-ray": ("iss", {
            "generator": ray,
            "input_operator": {"kind": "columns",
                               "matrix": [_pairs(r) for r in cnormal((32, 1))]},
            "trials": 10, "seed": 9}),
        "iss-override-violation": ("iss", {
            "generator": explicit48, "input_operator": x0_op, "trials": 6,
            "adm_bound_override": 1e-4, "seed": 10}),
        "iiss-power": ("iiss", {
            "generator": {"eigenvalues": _pairs(lam16)}, "x0": _pairs(x0_16),
            "young": {"power": 2.0}, "trials": 10, "seed": 12}),
        "iiss-segments": ("iiss", {
            "generator": {"eigenvalues": _pairs(lam16)}, "x0": _pairs(x0_16),
            "young": segments, "trials": 8, "horizon": 1.5, "seed": 13}),
        "shift-demo-power": ("shift-demo", {
            "young": segments,
            "profile": {"kind": "power", "coeff": 0.8, "exponent": -0.3}}),
        "shift-demo-divergent": ("shift-demo", {
            "young": {"power": 2.0},
            "profile": {"kind": "power", "coeff": 0.5, "exponent": -0.5}}),
        "shift-demo-samples": ("shift-demo", {
            "young": {"power": 1.5},
            "profile": {"kind": "samples", "edges": unit_edges.tolist(),
                        "values": rng.uniform(0.0, 2.0, 16).tolist()}}),
        "probe-boundedness": ("probe-boundedness", {
            "probe_rule": {"kind": "ray", "base": -0.8, "exponent": 1.0, "angle": 0.6,
                           "count": 1},
            "Ns": [4, 16, 64], "t_grid": [1e-3, 1e-2, 1e-1]}),
    }


CASES = {name: command for name, (command, _) in _scenarios().items()}


def _run_case(name: str, outdir: Path) -> int:
    scenario = str(GOLDEN / name / "scenario.json")
    return run(CASES[name], scenario, out=str(outdir), quiet=True)


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name != "scenario.json"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_is_byte_identical(name, tmp_path):
    expected = _outputs(GOLDEN / name)
    assert expected, f"no golden output for {name}"
    code = _run_case(name, tmp_path)
    assert code == (2 if "violation.dump.json" in expected else 0)
    got = _outputs(tmp_path)
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden copy"


_NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _moves(old: bytes, new: bytes) -> tuple[int, float] | None:
    """(numbers changed, largest relative move); None if other bytes changed."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = [(float(a), float(b)) for a, b in
             zip(_NUMBER.findall(old), _NUMBER.findall(new)) if a != b]
    worst = max((abs(b - a) / abs(a) if a else math.inf for a, b in pairs), default=0.0)
    return len(pairs), worst


def _report_moves(old_dir: Path, new_dir: Path) -> None:
    """Print one line per file that differs between two golden trees."""
    def files(d: Path) -> dict[str, bytes]:
        return {str(p.relative_to(d)): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    old, new = files(old_dir), files(new_dir)
    for label in sorted(set(old) | set(new)):
        if old.get(label) == new.get(label):
            continue
        moves = None if label not in old or label not in new else _moves(
            old[label], new[label])
        if moves is None:
            print(f"{label}: CHANGED OUTSIDE A NUMBER")
        else:
            print(f"{label}: {moves[0]} numbers changed, max rel move {moves[1]:.2g}")


def test_regeneration_report_tells_number_moves_from_other_changes():
    assert _moves(b'{"a": 1.5, "b": [2, 3e-1]}', b'{"a": 1.5, "b": [2, 3.3e-1]}') == (
        1, pytest.approx(0.1))
    assert _moves(b'{"a": 1.5}', b'{"a": 1.5}') == (0, 0.0)
    assert _moves(b'{"a": 1.5}', b'{"b": 1.5}') is None
    assert _moves(b'{"a": [1]}', b'{"a": [1, 2]}') is None


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        for name, (_, payload) in _scenarios().items():
            case = fresh / name
            case.mkdir(parents=True)
            (case / "scenario.json").write_text(json.dumps(payload, indent=1) + "\n")
            run(CASES[name], str(case / "scenario.json"), out=str(case), quiet=True)
        if GOLDEN.exists():
            _report_moves(GOLDEN, fresh)
            shutil.rmtree(GOLDEN)
        shutil.copytree(fresh, GOLDEN)


if __name__ == "__main__":
    regenerate()
