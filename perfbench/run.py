"""Certification benchmark for ``conformal_reach``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` directory and nowhere else, with BLAS capped at ``nproc``
threads. One run, in one process:

1. certifies the reference instance (seed ``REFERENCE_SEED``) untimed,
   compares it with the outputs stored in ``perfbench/reference/`` and
   audits it, which also warms every code path before timing;
2. certifies and audits fresh instances, each with its own image, network
   and perturbation set drawn from ``--seed``; their number is ``--seconds``
   over the workload's nominal time per instance (at least one), so every
   run of a workload and seed measures the same instances;
3. with ``--trace 0`` reports the end-to-end metrics: medians of the
   per-instance times and means of the per-instance quality figures; with
   ``--trace 1`` it also replays each instance stage by stage under spans,
   requires the replay to match the untraced pipeline bit for bit, and
   reports per-layer metrics as means per instance.

Every certification is checked (see ``checks.py``); one that raises or fails
a check counts in ``failed``. The last line of standard output is the JSON
result; a full report, with the machine record and, when traced, the spans,
goes to ``.bench_out/`` in the checkout. ``--tiny`` runs the same code paths
at small sizes for the self-check.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS to at most nproc threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        os.environ[var] = current if keep else str(nproc)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for the self-check")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "conformal_reach" / "verify.py").is_file():
        print(f"error: no conformal_reach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conformal_reach.verify

    if Path(conformal_reach.verify.__file__).resolve().parent != SRC / "conformal_reach":
        print("error: conformal_reach was not imported from the checkout", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    harness.run(args, nproc, SRC, OUT_DIR, BLAS_ENV)
    return 0


if __name__ == "__main__":
    sys.exit(main())
