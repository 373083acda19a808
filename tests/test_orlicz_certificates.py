"""The Orlicz certificates without per-window or per-trial objects.

Property tests hold the three object-free paths to the routes they replace,
bit for bit: the iISS window profiles cut from one signal against
``SampledFunction`` of ``u.restrict(t)``, the one-pass re-verification of
``orlicz_adm_bound`` against the per-trial loop in ``orlicz_oracle.py``, and
the one-buffer kernel envelope against its three-temporary expression.  The
check itself is not weakened: a too small constant fails on the oracle's
first trial, and a valid one checks every trial.  Bad arguments, and horizons
that ``random_signal`` could never fill (it drew forever on them), raise
named errors; each such call runs under a deadline.

Needs ``hypothesis`` (the ``test`` extra); the module is skipped without it.
"""

import contextlib
import json
import math
import signal
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from admlab import admissibility
from admlab.admissibility import (
    AdmissibilityError,
    CertificateViolation,
    InputOperator,
    _sampled_envelope,
    _trial_norms,
    orlicz_adm_bound,
)
from admlab.cli import main
from admlab.orlicz import (
    SampledFunction,
    Segment,
    YoungFunction,
    compose_sqrt,
    luxemburg_norm,
    power_young,
)
from admlab.signals import _GRID_ENTRIES, SignalError, _block_rows, random_signal
from admlab.spectral import DiagonalGenerator

import orlicz_oracle

# The benchmark's two Young functions: a pure power and power/constant/power.
PSIS = {
    "power": power_young(3.0, 0.5),
    "segments": YoungFunction(
        [Segment(0.0, "power", 2.0, 1.0), Segment(1.0, "const", 3.0, 0.0),
         Segment(2.0, "power", 1.5, 1.0)]
    ),
}
GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""
    def fire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _system(rng, n):
    lam = -rng.uniform(0.1, 5.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    x0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.arange(1, n + 1) ** 1.5
    return DiagonalGenerator(lam), x0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pieces=st.integers(1, 12),
    horizon=st.floats(0.01, 20.0),
    which=st.sampled_from(sorted(PSIS)),
    sqrt=st.booleans(),
)
def test_prefix_profiles_give_the_restricted_luxemburg_norm(
        seed, n_pieces, horizon, which, sqrt):
    phi = compose_sqrt(PSIS[which]) if sqrt else PSIS[which]
    rng = np.random.default_rng(seed)
    u = random_signal(rng, horizon, n_pieces, amplitude=float(rng.uniform(0.1, 3.0)))
    # inside pieces, on every interior breakpoint, and at the horizon
    times = np.sort(np.concatenate([rng.uniform(0.0, horizon, 3), u.breakpoints[1:]]))
    times = times[times > 0.0]
    for t in times.tolist():
        w = u.restrict(t)
        ref = SampledFunction(w.breakpoints, np.abs(w.values))
        cut = SampledFunction._cut(*u._prefix_profile(t))
        for got, want in ((cut.edges, ref.edges), (cut.widths, ref.widths),
                          (cut.values, ref.values)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert cut.tail_rate is None
        assert luxemburg_norm(phi, cut) == luxemburg_norm(phi, ref)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 48),
    n_trials=st.integers(1, 12),
    which=st.sampled_from(sorted(PSIS)),
)
def test_one_pass_reverification_matches_the_per_trial_loop(seed, n, n_trials, which):
    rng = np.random.default_rng(seed)
    A, x0 = _system(rng, n)
    phi = compose_sqrt(PSIS[which])
    horizons = rng.uniform(0.05, 6.0, 3).tolist()
    want = orlicz_oracle.trial_norms(A, x0, phi, n_trials, seed, horizons)
    draw = np.random.default_rng(seed)
    trials = [
        random_signal(draw, horizons[i % 3], int(draw.integers(3, 13)))
        for i in range(n_trials)
    ]
    got = list(_trial_norms(A, InputOperator.aminus_x0(x0), phi, trials))
    assert [i for i, _, _ in got] == list(range(n_trials - 1, -1, -1))
    for i, lhs, norm in got:
        assert (lhs, norm) == want[i][1:]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 700),
    n_grid=st.integers(1, 600),
)
def test_one_buffer_envelope_matches_the_three_temporary_expression(seed, n, n_grid):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-8, 2, n)
    rates = 10.0 ** rng.uniform(-2, 3, n)
    g = _sampled_envelope(c, rates, n_grid)
    left = g.edges[:-1]
    want = np.empty(n_grid)
    step = _block_rows(n, _GRID_ENTRIES)
    for i0 in range(0, n_grid, step):
        rows = slice(i0, i0 + step)
        with np.errstate(under="ignore"):
            want[rows] = np.exp(-np.multiply.outer(left[rows], rates)) @ c
    assert np.array_equal(g.values, want)


def test_a_too_small_constant_fails_on_the_oracles_first_trial(monkeypatch):
    adm_constant = admissibility.l2_adm_constant
    rng = np.random.default_rng(4)
    A, x0 = _system(rng, 24)
    horizons = [0.5, 1.0, 2.0, 8.0]
    later_first = 0
    for factor in (0.1, 0.2, 0.3):  # the trials use 13-37 % of a valid C
        monkeypatch.setattr(
            admissibility, "l2_adm_constant", lambda A, f=factor: f * adm_constant(A))
        for which, psi in PSIS.items():
            phi, C = orlicz_adm_bound(A, x0, psi, n_verify=0)
            want = orlicz_oracle.failures(A, x0, phi, C, 50, 3, horizons)
            assert want, (factor, which)
            first_is_0 = want[0].startswith("certificate failed on trial 0:")
            later_first += len(want) > 1 and not first_is_0
            with pytest.raises(CertificateViolation) as exc:
                orlicz_adm_bound(A, x0, psi, n_verify=50, seed=3, horizons=horizons)
            assert str(exc.value) == want[0]
    # the first failure is neither trial 0 nor the only one in some case, so
    # the last-run-first pass must pick the lowest index, not the last found
    assert later_first


def test_a_valid_constant_checks_every_trial(monkeypatch):
    rng = np.random.default_rng(5)
    A, x0 = _system(rng, 16)
    calls = []
    monkeypatch.setattr(
        admissibility, "luxemburg_norm",
        lambda phi, u: calls.append(phi) or luxemburg_norm(phi, u))
    psi = PSIS["segments"]
    for n_verify in (0, 1, 7, 50):
        calls.clear()
        phi, _ = orlicz_adm_bound(A, x0, psi, n_verify=n_verify, seed=2)
        assert calls[0] is psi  # the kernel profile's norm
        assert len(calls) == 1 + n_verify


BAD_ORLICZ_ARGS = {
    "no horizons": ({"horizons": []}, "horizons"),
    "infinite horizon": ({"horizons": [1.0, math.inf]}, "horizons"),
    "nan horizon": ({"horizons": [math.nan]}, "horizons"),
    "zero horizon": ({"horizons": [0.0]}, "horizons"),
    "negative horizon": ({"horizons": [-2.0]}, "horizons"),
    "half trials": ({"n_verify": 2.5}, "n_verify"),
    "negative trials": ({"n_verify": -3}, "n_verify"),
    "bool trials": ({"n_verify": True}, "n_verify"),
}


@pytest.mark.parametrize("case", sorted(BAD_ORLICZ_ARGS))
def test_orlicz_adm_bound_names_bad_arguments(case):
    kwargs, name = BAD_ORLICZ_ARGS[case]
    A = DiagonalGenerator([-1.0, -2.0])
    with deadline(10.0), pytest.raises(AdmissibilityError, match=name):
        orlicz_adm_bound(A, [1.0, 0.5], power_young(2.0, 0.5), **kwargs)


@pytest.mark.parametrize("horizon,n_pieces", [
    (5e-324, 4), (2 * 5e-324, 3), (math.inf, 3), (math.nan, 3), (-1.0, 3), (0.0, 1),
])
def test_random_signal_rejects_a_horizon_it_cannot_fill(horizon, n_pieces):
    with deadline(10.0), pytest.raises(SignalError, match="horizon"):
        random_signal(np.random.default_rng(0), horizon, n_pieces)


def test_random_signal_fills_a_subnormal_horizon_that_holds_the_pieces():
    # 6 doubles in [0, 5 * 2^-1074]: 5 pieces take every one of them
    with deadline(10.0):
        u = random_signal(np.random.default_rng(0), 5 * 5e-324, 5)
    assert np.array_equal(u.breakpoints, np.arange(6) * 5e-324)


def test_simulate_with_an_infinite_random_horizon_exits_1(tmp_path, capsys):
    scn = json.loads((GOLDEN / "simulate-columns" / "scenario.json").read_text())
    text = json.dumps(scn).replace('"horizon": 3.0', '"horizon": 1e400')
    assert "1e400" in text
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "out"
    with deadline(20.0):
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "horizon" in err and "Traceback" not in err
