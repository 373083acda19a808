"""Property test of scenario loading: the one-pass array checks of
``load_scenario`` change nothing the schema decides.

Each generated document is a valid one holding every array the fast path
checks, with one to three edits.  An edit puts another value at one
of those arrays (a bool, None, a string, a triple, a nested or empty list, a
zero or negative weight, or no array at all) or breaks the document elsewhere
(a bad ``kind``, an unknown key, a bad ``horizon``).  ``load_scenario`` must
accept exactly when plain ``Draft202012Validator`` accepts, and on a
rejection report the validator's first error, pointer and message, byte for
byte.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import copy
import json
from importlib import resources

import jsonschema
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab.cli import ConfigError, load_scenario

VALIDATOR = jsonschema.Draft202012Validator(json.loads(
    resources.files("admlab").joinpath("scenario.schema.json").read_text()
))

NAN, INF = float("nan"), float("inf")
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0), st.sampled_from([NAN, INF, -INF]))
CNUMS = st.one_of(NUMBERS, st.tuples(NUMBERS, NUMBERS).map(list))
WEIGHTS = st.one_of(st.floats(0.1, 4.0), st.integers(1, 3), st.sampled_from([NAN, INF]))
# Entries a cvec refuses: bools, other non-numbers, and lists that are not
# number pairs; weights refuse these, zero, negatives and pairs.
_NOT_NUMBERS = [True, False, None, "1", [], [1.5], [[1, 2]], {}]
NOT_CNUMS = st.sampled_from(_NOT_NUMBERS + [[1.0, True], [False, 2], [1, 2, 3]])
NOT_WEIGHTS = st.sampled_from(_NOT_NUMBERS + [0, 0.0, -1, -INF, [1.0, 2.0]])
NOT_ARRAYS = st.sampled_from([[], 1, 2.5, NAN, True, None, "1", {}])


def _lists(entry, max_size=3):
    return st.lists(entry, min_size=1, max_size=max_size)


def _one_swapped(valid, bad_entry):
    """A valid list with one entry (or one appended) taken from ``bad_entry``."""
    return st.tuples(valid, st.integers(0, 2), bad_entry).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1:]
    )


CVEC = _lists(CNUMS)
BAD_CVEC = st.one_of(_one_swapped(CVEC, NOT_CNUMS), NOT_ARRAYS)
WEIGHT_LIST = _lists(WEIGHTS)
BAD_WEIGHTS = st.one_of(_one_swapped(WEIGHT_LIST, NOT_WEIGHTS), NOT_ARRAYS)
MATRIX = _lists(_lists(CNUMS, 2), 2)
BAD_MATRIX = st.one_of(
    _one_swapped(MATRIX, st.one_of(BAD_CVEC, CNUMS)),
    _lists(BAD_CVEC, 2),
    NOT_ARRAYS,
)

# A valid document holding every array the fast path checks.
BASE = {
    "generator": {"eigenvalues": [[-1.0, 0.5], -2, [-3, NAN]], "weights": [1, 0.5, INF]},
    "probe_rule": {"kind": "ray", "base": -1.0, "exponent": 1.0, "angle": 0.2,
                   "count": 2, "weights": [NAN, 2.0]},
    "input_operator": {"kind": "columns", "matrix": [[1.0, [0, 1]], [-INF, 2]],
                       "x0": [0.5, [1, -1]]},
    "x0": [1, 2.5],
    "initial_state": [[0.0, 1.0], 3],
    "horizon": 1.0,
}
# Where a fault may go, and what it puts there: a value the schema refuses,
# or now and then one it accepts.
FAULTS = {
    ("generator", "eigenvalues"): st.one_of(BAD_CVEC, CVEC),
    ("generator", "weights"): st.one_of(BAD_WEIGHTS, WEIGHT_LIST),
    ("generator", "kind"): st.sampled_from(["diagonal", "ray", "explicit"]),
    ("probe_rule", "weights"): st.one_of(BAD_WEIGHTS, WEIGHT_LIST),
    ("probe_rule", "eigenvalues"): CVEC,
    ("input_operator", "matrix"): st.one_of(BAD_MATRIX, MATRIX),
    ("input_operator", "x0"): st.one_of(BAD_CVEC, CVEC),
    ("input_operator", "kind"): st.sampled_from(["rows", "columns"]),
    ("x0",): st.one_of(BAD_CVEC, CVEC),
    ("initial_state",): st.one_of(BAD_CVEC, CVEC),
    ("horizon",): st.sampled_from([0.0, -1.0, "1", True, 2.0]),
    ("generatorr",): st.just({}),
}
EDITS = st.sampled_from(sorted(FAULTS)).flatmap(
    lambda path: st.tuples(st.just(path), FAULTS[path])
)


def _with_faults(doc, edits):
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


def _expected(text: str) -> str | None:
    """The first error plain jsonschema reports, formatted as load_scenario
    formats it; None when the document is valid."""
    errors = sorted(VALIDATOR.iter_errors(json.loads(text)), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    e = errors[0]
    pointer = "/" + "/".join(str(part) for part in e.absolute_path)
    return f"scenario schema violation at {pointer!r}: {e.message}"


def _check(path, doc) -> str | None:
    text = json.dumps(doc)
    path.write_text(text)
    try:
        load_scenario(str(path))
        got = None
    except ConfigError as exc:
        got = str(exc)
    assert got == _expected(text)
    return got


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scenarios") / "s.json"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
def test_load_scenario_agrees_with_plain_jsonschema(scratch, edits):
    _check(scratch, _with_faults(copy.deepcopy(BASE), edits))


@pytest.mark.parametrize(
    "doc",
    [
        {"generator": {"eigenvalues": [1.0, True]}},
        {"generator": {"eigenvalues": [[1, True]]}},
        {"generator": {"eigenvalues": [1.0, 2.0], "weights": [1, 0]}},
        {"input_operator": {"kind": "columns", "matrix": [[1.0], [False]]}},
        {"input_operator": {"kind": "columns", "matrix": []}},
        {"probe_rule": {"kind": "ray", "base": -1.0, "exponent": 1.0, "angle": 0.0,
                        "count": 2, "weights": [1.0, -0.5]}},
        {"x0": [1.0, [2.0, 3.0, 4.0]]},
        {"initial_state": []},
    ],
)
def test_bad_arrays_report_the_schema_error(scratch, doc):
    assert _check(scratch, doc) is not None


def test_nan_inf_and_large_arrays_pass(scratch):
    doc = {
        "generator": {"eigenvalues": [[-1.0, NAN]] * 200 + [-INF],
                      "weights": [NAN, INF] + [1] * 199},
        "input_operator": {"kind": "columns", "matrix": [[1, [0.0, 1.0]]] * 201},
        "initial_state": [0] * 201,
    }
    assert _check(scratch, doc) is None
