"""Interleaved A/B runs of one benchmark workload on two checkouts.

    python3 tools/abrun.py PARENT CHANGE WORKLOAD [--pairs N] [--seed S] [--seconds T]

Each of N pairs (default 10) runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) once in each checkout, from that checkout's root, at
the same ``--seed`` and ``--seconds`` with ``--trace 0``. The side that runs
first alternates (PARENT in even pairs), and both runs of pair i get
``PYTHONHASHSEED=i``. A run that fails or reports ``correct: false`` stops
the runner. For each end-to-end metric of CHANGE's ``BENCHMARK.json`` it
prints both sides' median and quartiles, and in how many pairs the change
was better and worse in the metric's ``better`` direction; a tie counts for
neither. Nothing under either checkout is written but what the benchmark
itself writes. Give the checkouts paths of equal length: import-time heap
layout follows the path, and ``peak_rss_mb`` with it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, end_to_end):
    """One row per metric of ``end_to_end`` (``BENCHMARK.json`` entries with
    ``name`` and ``better``) from the paired runs ``parent[i]`` and
    ``change[i]``, each a dict of metric values: the metric, both sides'
    quartiles, and the pairs in which the change was better and worse."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        diffs = [sign * (y - x) for x, y in zip(a, b)]
        rows.append(dict(
            name=name, parent=quartiles(a), change=quartiles(b),
            better=sum(d > 0 for d in diffs), worse=sum(d < 0 for d in diffs), pairs=len(diffs),
        ))
    return rows


def run_side(checkout, command, workload, seed, seconds, pair):
    """Metric values of one benchmark run in ``checkout``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONHASHSEED": str(pair)}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"pair {pair}: {checkout} gave no correct run\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=4)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    parent, change = [], []
    for pair in range(args.pairs):
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in sides if pair % 2 == 0 else sides[::-1]:
            runs.append(run_side(checkout.resolve(), bench["command"], args.workload, args.seed, seconds, pair))
        print(f"pair {pair} done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {seconds:g} s a run")
    print(f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  change better / worse")
    for row in summarize(parent, change, bench["end_to_end"]):
        a, b = ("{1:.6g} [{0:.6g}, {2:.6g}]".format(*row[side]) for side in ("parent", "change"))
        print(f"{row['name']:<14} {a:>34} {b:>34}  {row['better']} / {row['worse']} of {row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
