"""admlab benchmark: one workload run, printed as one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload {envelope,orlicz,bounds,cli} --seed N \\
        --seconds S --trace {0,1}

The run starts fresh Python processes with one thread and BLAS pinned to one
thread, importing admlab from ``src/``: several set-up-only processes (their
median is ``setup_s``), then one worker that warms up, checks every job's
output against the oracles and times rounds of the workload's job list for
``S`` seconds (see worker.py).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and the tracing
overhead.  Exits non-zero, printing no result, when admlab's source is absent
or a process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("envelope", "orlicz", "bounds", "cli")
SETUP_PROBES = 8
TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(args, workdir: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh process; returns its last stdout JSON line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "admlab" / "__init__.py").is_file():
        print("bench: src/admlab not found; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    env = _env(root)
    scratch = root / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_PROBES):
            probe = _spawn(args, scratch / f"setup{i}", env, deadline, True)
            setups.append(probe["setup_s"])
        res = _spawn(args, scratch / "run", env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.parent.rmdir()
    setups.append(res["setup_s"])
    print(
        f"bench: {args.workload} seed={args.seed} rounds={res['rounds']} "
        f"jobs/round={res['jobs_per_round']} setups={['%.4f' % s for s in setups]}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = {name: {"value": v, "unit": _layer_unit(name)}
                   for name, v in res["layers"].items()}
        if res["missing"]:
            print(f"bench: layer functions missing: {', '.join(res['missing'])}")
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".s"):
        return "s"
    return {"orlicz.modular_per_norm": "1", "cli.bytes_written": "bytes",
            "trace.overhead": "ratio"}[name]


if __name__ == "__main__":
    sys.exit(main())
