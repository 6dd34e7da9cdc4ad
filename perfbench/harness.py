"""Measuring loop of the benchmark.

Imported by ``run.py`` once BLAS is capped and the checkout's ``src/`` is on
the import path; see ``run.py`` for what one run does.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import checks
import replay
from workloads import REFERENCE_SEED, audit, build_inputs, certify, get_workload, instance_seed

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_s": "s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
    "rv_pct": "%",
    "unknown_pct": "%",
    "coverage_hat": "fraction",
    "bound_ratio": "ratio",
}
MEDIAN_METRICS = ("setup_s", "certify_s", "audit_s")

LOC_MODULES = ("_seeds", "calibrate", "guarantees", "hull", "model", "pca", "perturb", "verify")
LAYER_UNITS = {
    "hull.clip_s": "s",
    "hull.clip_us_per_point": "us",
    "hull.clip_points": "count",
    "hull.interior_hit_frac": "fraction",
    "hull.inside_frac": "fraction",
    "hull.build_s": "s",
    "hull.degenerate": "flag",
    "pca.deflate_s": "s",
    "pca.deflate_iters": "count",
    "pca.deflate_converged_frac": "fraction",
    "pca.deflate_residual_max": "ratio",
    "perturb.sample_s": "s",
    "perturb.apply_s": "s",
    "perturb.apply_mb_computed": "MB",
    "perturb.noise_matrix_mb": "MB",
    "model.infer_s": "s",
    "model.infer_rows": "count",
    "model.infer_gflop_computed": "GFLOP",
    "model.infer_gflops": "GFLOP/s",
    "calibrate.center_scale_s": "s",
    "calibrate.score_s": "s",
    "calibrate.held_mb_computed": "MB",
    "calibrate.tau_floor": "flag",
    "verify.pixel_status_s": "s",
    "verify.audit_rows": "count",
    "verify.eps_hat": "fraction",
    "guarantees.delta2": "fraction",
    "guarantees.one_minus_delta2": "fraction",
    **{f"loc.{m}": "lines" for m in LOC_MODULES},
    "loc.other": "lines",
    "loc.total": "lines",
    "trace.overhead_s": "s",
}


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(nproc, blas_env):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "blas_env": {var: os.environ[var] for var in blas_env},
    }


def loc_metrics(src):
    """Non-blank, non-comment source lines per module of the package."""
    counts = {}
    for path in sorted((src / "conformal_reach").glob("*.py")):
        lines = path.read_text().splitlines()
        counts[path.stem] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    out = {f"loc.{m}": float(counts.get(m, 0)) for m in LOC_MODULES}
    out["loc.other"] = float(sum(v for m, v in counts.items() if m not in LOC_MODULES))
    out["loc.total"] = float(sum(counts.values()))
    return out


class Bench:
    """One benchmark run: its workload, counters and collected samples."""

    def __init__(self, wl, trace):
        self.wl = wl
        self.shape = (wl.height, wl.width, wl.classes)
        self.trace = trace
        self.tracer = replay.Tracer()
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, label, fn, *args):
        """Run one certification; a raise or failed check counts as failed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception:
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc()}")

    def reference(self, tiny):
        inp = build_inputs(self.wl, REFERENCE_SEED)
        lo, hi, mask = certify(self.wl, inp)
        checks.invariants(lo, hi, mask, self.shape)
        checks.against_reference(checks.reference_path(self.wl.name, tiny), lo, hi, mask, inp.guarantee)
        audit(self.wl, inp, lo, hi)  # warms the audit path too before timing

    def instance(self, k, seed):
        setups = []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = build_inputs(self.wl, seed)
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        lo, hi, mask = certify(self.wl, inp)
        t1 = time.perf_counter()
        report = audit(self.wl, inp, lo, hi)
        t2 = time.perf_counter()
        checks.invariants(lo, hi, mask, self.shape)
        if self.trace:
            self._replay(k, inp, (lo, hi, mask, report), t2 - t0)
            return
        h, w, _ = self.shape
        self.samples["setup_s"].extend(setups)
        self.samples["certify_s"].append(t1 - t0)
        self.samples["audit_s"].append(t2 - t1)
        self.samples["rv_pct"].append(mask.rv)
        self.samples["unknown_pct"].append(100.0 * mask.counts["unknown"] / (h * w))
        self.samples["coverage_hat"].append(1.0 - report.eps_hat)
        self.samples["bound_ratio"].append(report.bound_ratio)

    def _replay(self, k, inp, untraced, untraced_s):
        lo, hi, mask, report = untraced
        tr = self.tracer
        tr.instance = k
        fn = replay.replay_naive if self.wl.pipeline == "naive" else replay.replay_surrogate
        with tr.span("certify", seed=inp.seed):
            lo2, hi2, mask2, extras = fn(tr, self.wl, inp, self.shape)
        with tr.span("audit"):
            eps2, ratio2, emp_lo, emp_hi = replay.replay_audit(tr, self.wl, inp, lo2, hi2)
        checks.bit_identical([
            ("lo", lo, lo2), ("hi", hi, hi2), ("status", mask.status, mask2.status),
            ("eps_hat", report.eps_hat, eps2), ("bound_ratio", report.bound_ratio, ratio2),
            ("empirical_lo", report.empirical_lo, emp_lo), ("empirical_hi", report.empirical_hi, emp_hi),
        ])
        spans = [s for s in tr.spans if s["instance"] == k]
        traced_s = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        layer = replay.layer_metrics(spans, inp.spec, extras, self.wl.audit)
        layer["verify.eps_hat"] = eps2
        layer["trace.overhead_s"] = traced_s - untraced_s
        for name, value in layer.items():
            self.samples[name].append(value)

    def metrics(self, src):
        if self.trace:
            values = {name: statistics.fmean(v) for name, v in self.samples.items()}
            values.update(loc_metrics(src))
            units = LAYER_UNITS
        else:
            values = {
                name: (statistics.median if name in MEDIAN_METRICS else statistics.fmean)(v)
                for name, v in self.samples.items()
            }
            # ru_maxrss is in KiB on Linux
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            units = END_TO_END_UNITS
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}


def run(args, nproc, src, out_dir, blas_env):
    """Reference check, then the instances that fit ``args.seconds`` at the
    workload's nominal speed; prints the result line and writes the report."""
    wl = get_workload(args.workload, args.tiny)
    bench = Bench(wl, bool(args.trace))
    bench.attempt("reference", bench.reference, args.tiny)

    # A traced instance runs the pipeline twice: untraced, then replayed.
    count = max(1, int(args.seconds / (wl.nominal_s * (2 if args.trace else 1))))
    start = time.perf_counter()
    for k in range(count):
        bench.attempt(f"instance {k}", bench.instance, k, instance_seed(args.seed, k))
        if time.perf_counter() - start > 2 * args.seconds:
            break  # a far slower machine: keep the run bounded
    k += 1

    metrics = bench.metrics(src)
    missing = sorted(set(LAYER_UNITS if args.trace else END_TO_END_UNITS) - set(metrics))
    correct = bench.failed == 0 and not missing
    machine = machine_record(nproc, blas_env)
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({
            "workload": wl.name, "tiny": args.tiny, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "instances": k, "machine": machine,
            "attempted": bench.attempted, "failed": bench.failed, "errors": bench.errors,
            "missing_metrics": missing, "samples": bench.samples, "metrics": metrics,
            "spans": bench.tracer.spans,
        }, fh, indent=1)
    for err in bench.errors:
        print(err, file=sys.stderr)
    print("machine " + json.dumps(machine))
    for name, m in metrics.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{wl.name} failed_frac {bench.failed / bench.attempted:.6g} fraction "
          f"({bench.failed} of {bench.attempted} certifications)")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
