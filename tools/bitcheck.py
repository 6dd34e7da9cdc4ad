"""Output fingerprints of a checkout, for showing that a change keeps every bit.

    python3 tools/bitcheck.py CHECKOUT

Certifies and audits, through the checkout's own ``perfbench/workloads.py``
and ``src/``, the reference instance and instance 0 of workload seed 4 of
every benchmark workload, at full and ``--tiny`` size, with one BLAS thread.
It prints one line per case, ending in the SHA-1 of lo, hi, the pixel
status, the audit's empirical lo and hi, eps_hat and bound_ratio. Two
checkouts compute the same outputs when they print the same lines.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

SEED = 4


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    src = checkout / "src"
    if not (src / "conformal_reach" / "verify.py").is_file():
        print(f"error: no conformal_reach sources under {src}", file=sys.stderr)
        return 2
    # one thread, so a GEMM's bits do not follow how BLAS splits it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(checkout / "perfbench")]
    import numpy as np
    import conformal_reach.verify
    from workloads import REFERENCE_SEED, WORKLOADS, audit, build_inputs, certify, get_workload, instance_seed

    if Path(conformal_reach.verify.__file__).resolve().parent != src / "conformal_reach":
        print("error: conformal_reach was not imported from the checkout", file=sys.stderr)
        return 2
    instances = {"reference": REFERENCE_SEED, f"seed{SEED}-0": instance_seed(SEED, 0)}
    for name in sorted(WORKLOADS):
        for size in ("full", "tiny"):
            wl = get_workload(name, tiny=size == "tiny")
            for label, seed in instances.items():
                inp = build_inputs(wl, seed)
                lo, hi, mask = certify(wl, inp)
                report = audit(wl, inp, lo, hi)
                digest = hashlib.sha1()
                for part in (
                    lo, hi, mask.status, report.empirical_lo, report.empirical_hi,
                    report.eps_hat, report.bound_ratio,
                ):
                    digest.update(np.ascontiguousarray(part).tobytes())
                print(f"{name} {size} {label} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
