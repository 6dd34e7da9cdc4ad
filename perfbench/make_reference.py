"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_reference.py

Certifies each workload's reference instance, at full and at tiny size, and
writes its status mask, interval bounds and delta2 to ``reference/``. Run it
only when a change is meant to alter the certificate, and say so.
"""

from __future__ import annotations

import sys

from run import SRC, cap_blas_threads


def main():
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import REFERENCE_SEED, WORKLOADS, build_inputs, certify, get_workload

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for tiny in (False, True):
            wl = get_workload(name, tiny)
            inp = build_inputs(wl, REFERENCE_SEED)
            lo, hi, mask = certify(wl, inp)
            checks.invariants(lo, hi, mask, (wl.height, wl.width, wl.classes))
            path = checks.reference_path(name, tiny)
            checks.save_reference(path, lo, hi, mask, inp.guarantee)
            print(f"wrote {path.name}: rv {mask.rv:.2f}%, delta2 {inp.guarantee.confidence_delta2!r}")


if __name__ == "__main__":
    main()
