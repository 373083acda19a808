"""Steadiness check: ten runs of every workload, median and quartiles.

Usage, from the repository root:

    python3 bench/steady.py

Run i (i = 1..10) uses seed i and ``run_seconds`` from BENCHMARK.json; within
each repetition the workloads run in alternating order (forward on odd
repetitions, backward on even ones), so slow drift on the machine spreads
over all workloads.  For every workload and end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``), the spread (q3 - q1) / median next to a third of the metric's bound,
and the failed and attempted job counts.  It exits with code 3 when a spread
is not below a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    shares = {w: set() for w in names}
    for i, seed in enumerate(SEEDS):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed={seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add((res["failed"], res["attempted"]))
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            line = " ".join(f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds)
            print(f"{w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {line}", flush=True)
    print()
    ok = True
    for w in names:
        print(f"{w}: failed/attempted {sorted(shares[w])}")
        for m, bound in bounds.items():
            vals = values[w][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3.0 else "WIDE"
            ok = ok and flag == "ok"
            print(f"  {m:12s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.4f} bound/3={bound / 3.0:.4f} {flag}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
