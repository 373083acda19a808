"""Paired benchmark runs of two checkouts, parent and change, side by side.

Usage, from anywhere::

    python tools/ab.py PARENT CHANGE --workload envelope [--workload bounds ...]
        [--pairs 10] [--seed 1] [--seconds 8] [--trace 0]

PARENT and CHANGE are two checkouts of the repository (``git archive`` or
``git clone`` copies).  Each pair runs ``python3 bench/run.py`` once in each
checkout, alternating which side runs first, and reads the last JSON line
each run prints.  Each side keeps its bytecode in its own fresh temporary
directory (``PYTHONPYCACHEPREFIX``), written on its first run and read on
the later ones, so neither side reads bytecode left in a checkout by
earlier runs of other code; the first pair's ``setup_s`` holds that
compile on both sides.  Every pair's values are
printed as they come; then, per metric, each side's median and quartiles,
the number of pairs the change wins (ties count for neither side), whether
a gain may be claimed (the change wins at least nine tenths of the pairs and
the medians differ, in the better direction, by more than the distance
between the parent's quartiles) and whether the change regressed: its
median is worse than the parent's by more than the metric's ``bound``, a
fraction of the parent's median.  The better direction and the bound of
each metric are read from the change's ``BENCHMARK.json`` (lower, and no
bound, when it does not name the metric).  Given ``--workload`` more than
once, the tool runs and summarizes each workload in turn, each with fresh
bytecode caches, so one command prints every workload's rows.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(xs):
    """(q1, median, q3) of the values, inclusive method; one value gives it thrice."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better="lower", bound=None) -> dict:
    """The paired comparison of one metric: ``parent[i]`` and ``change[i]``
    come from pair i.  ``gain`` holds when the change wins at least nine
    tenths of the pairs and its median beats the parent's by more than the
    parent's interquartile range; ``regressed`` when a ``bound`` is given
    and the change's median is worse than the parent's by more than
    ``bound`` times the parent's median (None without a bound)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (pmed - cmed) > pq3 - pq1
    regressed = None if bound is None else sign * (cmed - pmed) > bound * abs(pmed)
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "wins": wins, "pairs": len(parent), "gain": gain, "regressed": regressed}


def _metrics(root: Path) -> dict:
    """{name: (better, bound or None)} from the checkout's BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: (m.get("better", "lower"), m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _run(root: Path, workload: str, args, pycache: Path) -> dict:
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # else every run compiles every module
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab: {' '.join(cmd)} in {root} exited {proc.returncode}")
    res = json.loads(lines[-1])
    values = {name: m["value"] for name, m in res["metrics"].items()}
    values["failed"] = res["failed"]
    return values


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _compare(args, workload: str, pycache: Path, metrics: dict) -> None:
    """Run one workload's pairs and print its summary rows."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(getattr(args, side), workload, args, pycache / side))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1} ({order[0]} first): " + "  ".join(
            f"{name} {p[name]:.4g}/{c[name]:.4g}" for name in p), flush=True)
    print(f"{workload}, {args.pairs} pairs, seed {args.seed}: "
          "median [q1, q3] parent | change, wins, gain, regressed beyond the bound")
    for name in runs["parent"][0]:
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      *metrics.get(name, ("lower", None)))
        regressed = {None: "-", True: "REGRESSED", False: "no"}[s["regressed"]]
        print(f"  {name}: {_fmt(s['parent'])} | {_fmt(s['change'])}  "
              f"{s['wins']}/{s['pairs']}  {'yes' if s['gain'] else 'no'}  {regressed}",
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = _metrics(args.change)
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as tmp:
        for workload in args.workload:
            _compare(args, workload, Path(tmp) / workload, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
