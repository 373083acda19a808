"""One workload run inside a fresh process (started by run.py).

Phases: set-up (import admlab, build the job list from the seed), one
untimed warm-up pass over every job, then timed rounds over the same job list
until ``--seconds`` have passed and at least 100 jobs ran.  Each timed job's
output is compared with its warm-up output.  With ``--trace 1`` the timed
phase is split: untraced rounds first, then rounds with every public layer
function wrapped by :class:`layertrace.Tracer`.  Only then are the warm-up
outputs checked against the oracles, so that the peak RSS read before it is
admlab's and not the oracles' (which import scipy and mpmath).

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

MIN_JOBS = 100


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _attempt(fn, *args):
    """(value, None) or (None, reason): a failing job must not end the run."""
    try:
        return fn(*args), None
    except Exception:  # noqa: BLE001 - recorded and reported as a failed job
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_round(jobs):
    """Time every job once; returns (round wall s, job seconds, results)."""
    times, results = [], []
    gc.collect()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        results.append(_attempt(job.call))
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, results


_WARMUP_FAILED = object()


def _grade(verdict):
    if verdict is None:
        return 0
    return 1 if isinstance(verdict, workloads.Known) else 2


def _worst(old, new):
    """Keep the graver verdict: an unexpected failure over a known one over none."""
    return new if _grade(new) > _grade(old) else old


class Ledger:
    """One verdict per job: from its warm-up run, its reruns and its oracle check.

    A job failed when any of these failed; ``failed`` counts jobs, so it is the
    same number on every run.  The run is correct when every failure is the
    :class:`workloads.Known` failure of a named fault.
    """

    def __init__(self, jobs, results):
        self.jobs = jobs
        self.reference = []
        self.verdicts = []
        for job, (value, error) in zip(jobs, results):
            if error is None:
                value, error = _attempt(job.collect, value)
            self.reference.append(_WARMUP_FAILED if error else value)
            self.verdicts.append(error)

    def score(self, results):
        """Compare one round's outputs with the warm-up outputs."""
        for i, (job, (value, error)) in enumerate(zip(self.jobs, results)):
            ref = self.reference[i]
            if ref is _WARMUP_FAILED:
                continue
            if error is None:
                out, error = _attempt(job.collect, value)
            if error is None:
                bad, error = _attempt(job.rerun, ref, out)
                error = error or bad
            self.verdicts[i] = _worst(self.verdicts[i], error)

    def check(self):
        """Check the warm-up outputs against the oracles."""
        for i, job in enumerate(self.jobs):
            ref = self.reference[i]
            if ref is not _WARMUP_FAILED:
                bad, error = _attempt(job.check, ref)
                self.verdicts[i] = _worst(self.verdicts[i], error or bad)

    @property
    def attempted(self):
        return len(self.jobs)

    @property
    def failed(self):
        return sum(v is not None for v in self.verdicts)

    @property
    def correct(self):
        return all(v is None or isinstance(v, workloads.Known) for v in self.verdicts)

    def report(self, out):
        for job, verdict in zip(self.jobs, self.verdicts):
            if verdict is not None:
                tag = "known fault" if isinstance(verdict, workloads.Known) else "FAILED"
                print(f"{tag}: {job.kind} [{job.label}]: {verdict}", file=out)


def timed_phase(jobs, ledger, seconds):
    walls, job_times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, times, results = run_round(jobs)
        ledger.score(results)
        del results
        walls.append(wall)
        job_times.extend(times)
        if time.perf_counter() >= deadline and len(job_times) >= MIN_JOBS:
            return walls, job_times


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def traced_phase(jobs, ledger, seconds):
    """Rounds with the layer functions wrapped; one (stats, pairs, bytes) per round."""
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    rounds, walls = [], []
    try:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            tracer.reset()
            wall, _, results = run_round(jobs)
            stats, pairs = tracer.stats, tracer.pairs
            ledger.score(results)
            del results
            walls.append(wall)
            rounds.append((stats, pairs, _bytes_written(jobs)))
    finally:
        tracer.uninstall()
    return tracer, rounds, walls


def _bytes_written(jobs):
    total = 0
    for job in jobs:
        if job.outdir is not None:
            total += sum(p.stat().st_size for p in job.outdir.iterdir())
    return total


def main(argv=None):
    args = _args(argv)
    jobs = workloads.build(args.workload, args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.started
    import admlab

    src = Path.cwd() / "src" / "admlab"
    if Path(admlab.__file__).resolve().parent != src.resolve():
        sys.exit(f"admlab imported from {admlab.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    _, _, warm = run_round(jobs)
    ledger = Ledger(jobs, warm)
    del warm
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    walls, job_times = timed_phase(jobs, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": setup_s,
        "rounds": len(walls),
        "jobs_per_round": len(jobs),
    }
    if args.trace:
        import layertrace

        tracer, rounds, traced_walls = traced_phase(jobs, ledger, seconds)
        out["layers"] = layertrace.metrics(rounds)
        out["layers"]["trace.overhead"] = (
            statistics.median(traced_walls) / statistics.median(walls))
        out["missing"] = tracer.missing()
    else:
        out["e2e"] = {
            "wall_s": statistics.median(walls),
            "job_p50_ms": 1e3 * percentile(job_times, 0.5),
            "job_p90_ms": 1e3 * percentile(job_times, 0.9),
            "peak_rss_mb": peak_rss_mb,
        }
        out["jobs_timed"] = len(job_times)
    ledger.check()
    ledger.report(sys.stderr)
    out.update(correct=ledger.correct, attempted=ledger.attempted, failed=ledger.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
