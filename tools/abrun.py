"""Interleaved A/B runs of benchmark workloads on two checkouts.

    python3 tools/abrun.py PARENT CHANGE WORKLOAD... [--pairs N] [--seed S] [--seconds T] [--json PATH]

For each workload in turn, each of N pairs (default 10) runs the benchmark
command of ``BENCHMARK.json`` (``perfbench/run.py``) once in each checkout,
from that checkout's root, at the same ``--seed`` and ``--seconds`` with
``--trace 0``. The side that runs first alternates (PARENT in even pairs),
and both runs of pair i get ``PYTHONHASHSEED=i``. A run that fails or
reports ``correct: false`` stops the runner.

For each end-to-end metric of CHANGE's ``BENCHMARK.json`` it prints both
sides' median and quartiles, and in how many pairs the change was better and
worse in the metric's ``better`` direction; a tie counts for neither. After
each run it reads that checkout's report,
``.bench_out/<workload>-seed<S>-trace0.json``, and compares the quality
metrics instance by instance: it prints each side's instance count (the
benchmark stops a slow run early, so they can differ; then only the
instances that both sides finished are compared), and for each quality
metric the instances that got worse and the worst change.

``--json PATH`` writes the summary to PATH: per workload, the quartiles,
wins and losses, instance counts and per-instance result, and both sides'
machine records. Nothing else is written but what the benchmark itself
writes. Give the checkouts paths of equal length: import-time heap layout
follows the path, and ``peak_rss_mb`` with it.
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


def compare_instances(parent, change, end_to_end):
    """The quality metrics of the paired reports ``parent[i]`` and
    ``change[i]`` (each with ``instances`` and per-instance ``samples``),
    compared over the instances that both sides of a pair finished: each
    side's instance count per pair and, per quality metric of
    ``end_to_end``, the instances compared, how many got worse in the
    metric's ``better`` direction, and the change (change minus parent)
    of the worst one, 0 when none got worse."""
    result = dict(instances=dict(
        parent=[r["instances"] for r in parent], change=[r["instances"] for r in change]
    ))
    for metric in end_to_end:
        name = metric["name"]
        if name not in ("rv_pct", "unknown_pct", "coverage_hat", "bound_ratio"):
            continue
        sign = 1 if metric["better"] == "higher" else -1
        changes = []
        for a, b in zip(parent, change):
            n = min(a["instances"], b["instances"])
            changes += [y - x for x, y in zip(a["samples"][name][:n], b["samples"][name][:n])]
        worst = min(changes, key=lambda d: sign * d, default=0.0)
        result[name] = dict(
            compared=len(changes), worse=sum(sign * d < 0 for d in changes),
            worst_change=worst if sign * worst < 0 else 0.0,
        )
    return result


def run_side(checkout, command, workload, seed, seconds, pair):
    """Metric values of one benchmark run in ``checkout``, and its report."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONHASHSEED": str(pair)}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"pair {pair}: {checkout} gave no correct run\n{proc.stdout}{proc.stderr}")
    report = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {name: m["value"] for name, m in result["metrics"].items()}, report


def ab_workload(args, bench, seconds, workload):
    """Print and return the summary of ``args.pairs`` pairs of one workload."""
    runs = {"parent": [], "change": []}
    sides = [("parent", args.parent), ("change", args.change)]
    for pair in range(args.pairs):
        for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
            runs[side].append(run_side(checkout.resolve(), bench["command"], workload, args.seed, seconds, pair))
        print(f"pair {pair} done", file=sys.stderr, flush=True)
    (parent, parent_reports), (change, change_reports) = (zip(*runs[side]) for side in ("parent", "change"))
    rows = summarize(parent, change, bench["end_to_end"])
    per_instance = compare_instances(parent_reports, change_reports, bench["end_to_end"])
    print(f"{workload}: {args.pairs} pairs, seed {args.seed}, {seconds:g} s a run")
    print(f"{'metric':<14} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  change better / worse")
    for row in rows:
        a, b = ("{1:.6g} [{0:.6g}, {2:.6g}]".format(*row[side]) for side in ("parent", "change"))
        print(f"{row['name']:<14} {a:>34} {b:>34}  {row['better']} / {row['worse']} of {row['pairs']}")
    counts = per_instance["instances"]
    for side in ("parent", "change"):
        print(f"{side} instances per pair: {' '.join(map(str, counts[side]))}")
    if counts["parent"] != counts["change"]:
        print("instance counts differ: each pair compares the instances that both sides finished")
    for name, m in per_instance.items():
        if name != "instances":
            print(f"{name:<14} worse on {m['worse']} of {m['compared']} instances, worst change {m['worst_change']:.6g}")
    machine = {side: reports[-1]["machine"] for side, reports in (("parent", parent_reports), ("change", change_reports))}
    return dict(end_to_end=rows, per_instance=per_instance, machine=machine)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("workloads", nargs="+", metavar="workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=4)
    p.add_argument("--seconds", type=float)
    p.add_argument("--json", type=Path, help="write the summary to this file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    summary = dict(pairs=args.pairs, seed=args.seed, seconds=seconds, workloads={
        workload: ab_workload(args, bench, seconds, workload) for workload in args.workloads
    })
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
