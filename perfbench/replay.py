"""Traced replay of one certification and its audit.

The replay calls the same public functions the pipelines call, in the same
order, with the pipelines' own ``stage_rng`` streams and ``PIPELINE_CHUNK``
blocks, and wraps each call in a span. Nothing inside ``conformal_reach`` is
instrumented, so every span boundary is a call into one module. The caller
checks that the replayed intervals equal the untraced pipeline's bit for bit.

Spans are kept in memory as (id, name, start, end, parent, instance, counts)
and written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from conformal_reach._seeds import stage_rng
from conformal_reach.calibrate import build_calibration, center_and_scales, naive_reachset
from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.hull import PIPELINE_CHUNK, HullModel, clip_batch
from conformal_reach.model import LogitTensor, infer, predict_mask
from conformal_reach.pca import deflate
from conformal_reach.perturb import apply_batch, sample_lambdas
from conformal_reach.verify import pixel_status

# Residual at or below which a clipped point counts as inside the hull.
INSIDE_TOL = 1e-12


class Tracer:
    """In-memory span recorder; spans of one instance share its id."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.instance = 0

    @contextmanager
    def span(self, name, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
            "instance": self.instance,
            "counts": counts,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _infer_flop(model, rows):
    return 2.0 * rows * sum(w.shape[0] * w.shape[1] for w in model.weights)


def _outputs(tr, model, spec, seed, stage, count):
    """Chunked sample -> apply -> infer stream of one pipeline stage."""
    rng = stage_rng(seed, stage)
    noise_bytes = 0 if spec.noise_matrix is None else spec.noise_matrix.nbytes
    remaining = count
    while remaining > 0:
        k = min(PIPELINE_CHUNK, remaining)
        with tr.span("perturb.sample", rows=k):
            lams = sample_lambdas(spec, k, rng)
        with tr.span("perturb.apply", rows=k) as c:
            X = apply_batch(spec, lams)
            c["bytes"] = lams.nbytes + noise_bytes + spec.base_image.data.nbytes + X.nbytes
        with tr.span("model.infer", rows=k, flop=_infer_flop(model, k)):
            Y = infer(model, X)
        yield Y
        remaining -= k


def _baseline_mask(tr, model, spec, shape):
    with tr.span("model.infer", rows=1, flop=_infer_flop(model, 1)):
        logits = infer(model, spec.base_image.data)
    return predict_mask(LogitTensor(*shape, logits))


def _pixel_status(tr, model, spec, guarantee, lo, hi, shape):
    baseline = _baseline_mask(tr, model, spec, shape)
    with tr.span("verify.pixel_status"):
        return pixel_status(lo.reshape(shape), hi.reshape(shape), baseline, guarantee)


def replay_naive(tr, wl, inp, shape):
    """Mirror of ``run_naive_pipeline``; returns (lo, hi, mask, extras)."""
    model, spec, g, seed = inp.model, inp.spec, inp.guarantee, inp.seed
    with tr.span("guarantees.confidence"):
        guarantee = guarantee_confidence(g.epsilon, g.rank_ell, wl.calib)
    Y = np.vstack(list(_outputs(tr, model, spec, seed, "train", wl.train)))
    with tr.span("calibrate.center_scale", held_bytes=Y.nbytes):
        cs = center_and_scales(Y)
    del Y
    Y = np.vstack(list(_outputs(tr, model, spec, seed, "calib", wl.calib)))
    with tr.span("calibrate.score", held_bytes=Y.nbytes):
        calib = build_calibration(Y, cs)
        reachset = naive_reachset(calib, cs, guarantee)
    del Y
    lo, hi = reachset.project_intervals()
    mask = _pixel_status(tr, model, spec, guarantee, lo, hi, shape)
    return lo, hi, mask, {"guarantee": guarantee, "tau_floor": cs.degenerate}


def replay_surrogate(tr, wl, inp, shape):
    """Mirror of ``run_surrogate_pipeline``; returns (lo, hi, mask, extras)."""
    model, spec, g, seed = inp.model, inp.spec, inp.guarantee, inp.seed
    with tr.span("guarantees.confidence"):
        guarantee = guarantee_confidence(g.epsilon, g.rank_ell, wl.calib)
    Y_train = np.vstack(list(_outputs(tr, model, spec, seed, "train", wl.train)))
    with tr.span("pca.deflate"):
        basis = deflate(Y_train, wl.components)
    V = Y_train @ basis.matrix
    with tr.span("hull.build"):
        hull = HullModel.from_points(V, basis=basis)
    lifted = V @ basis.matrix.T
    lift_lb, lift_ub = lifted.min(axis=0), lifted.max(axis=0)

    def residuals(stage, count):
        rows = []
        for Y in _outputs(tr, model, spec, seed, stage, count):
            R = Y @ basis.matrix
            with tr.span("hull.interior_mask", rows=R.shape[0]) as c:
                c["hits"] = int(np.count_nonzero(hull.interior_mask(R)))
            with tr.span("hull.clip", rows=R.shape[0]) as c:
                V_hat, res = clip_batch(R, hull, "l_inf")
                c["inside"] = int(np.count_nonzero(res <= INSIDE_TOL))
            rows.append(Y - V_hat @ basis.matrix.T)
        return np.vstack(rows)

    Q = residuals("aux", wl.aux)
    with tr.span("calibrate.center_scale", held_bytes=Q.nbytes):
        cs_q = center_and_scales(Q)
    del Q
    Q = residuals("calib", wl.calib)
    with tr.span("calibrate.score", held_bytes=Q.nbytes):
        calib = build_calibration(Q, cs_q, source="surrogate-errors")
        threshold = calib.rank_score(guarantee.rank_ell)
    del Q
    error_sigma = cs_q.tau * threshold
    lo = cs_q.center + lift_lb - error_sigma
    hi = cs_q.center + lift_ub + error_sigma
    mask = _pixel_status(tr, model, spec, guarantee, lo, hi, shape)
    extras = {
        "guarantee": guarantee,
        "tau_floor": cs_q.degenerate,
        "basis": basis,
        "train_outputs": Y_train,
        "hull_degenerate": hull.degenerate,
    }
    return lo, hi, mask, extras


def replay_audit(tr, wl, inp, lo, hi):
    """Mirror of ``conservatism_audit``; returns (eps_hat, bound_ratio, emp_lo, emp_hi)."""
    y_lo = np.asarray(lo, dtype=np.float64).reshape(-1)
    y_hi = np.asarray(hi, dtype=np.float64).reshape(-1)
    misses = 0
    emp_lo = np.full(y_lo.shape, np.inf)
    emp_hi = np.full(y_hi.shape, -np.inf)
    for Y in _outputs(tr, inp.model, inp.spec, inp.seed, "audit", wl.audit):
        misses += int(np.sum(np.any((Y < y_lo) | (Y > y_hi), axis=1)))
        emp_lo = np.minimum(emp_lo, Y.min(axis=0))
        emp_hi = np.maximum(emp_hi, Y.max(axis=0))
    certified = np.sum(y_hi - y_lo)
    degenerate = not np.isfinite(certified) or certified <= 0.0
    ratio = 0.0 if degenerate else float(np.sum(emp_hi - emp_lo) / certified)
    return misses / wl.audit, ratio, emp_lo, emp_hi


def deflate_residual_max(Y, basis):
    """max_k ||Z_k^T Z_k a_k / t - lambda_k a_k|| / lambda_k over directions,
    with Z_k the cloud deflated by the directions before k."""
    Z = np.array(Y, dtype=np.float64)
    t = Z.shape[0]
    worst = 0.0
    for k in range(basis.num_components):
        a = basis.matrix[:, k]
        lam = basis.rayleigh[k]
        w = Z @ a
        resid = np.linalg.norm(Z.T @ w / t - lam * a) / max(lam, 1e-300)
        worst = max(worst, float(resid))
        Z -= np.outer(w, a)
    return worst


def layer_metrics(spans, spec, extras, audit_rows):
    """Per-layer metrics of one instance from its spans and replay extras."""

    def total(name, key=None):
        picked = [s for s in spans if s["name"] == name]
        if key is None:
            return sum(s["end"] - s["start"] for s in picked)
        return sum(s["counts"].get(key, 0) for s in picked)

    infer_s = total("model.infer")
    gflop = total("model.infer", "flop") / 1e9
    clip_points = total("hull.clip", "rows")
    clip_s = total("hull.clip")
    held = [s["counts"]["held_bytes"] for s in spans if "held_bytes" in s["counts"]]
    basis = extras.get("basis")
    g = extras["guarantee"]
    m = {
        "perturb.sample_s": total("perturb.sample"),
        "perturb.apply_s": total("perturb.apply"),
        "perturb.apply_mb_computed": total("perturb.apply", "bytes") / 1e6,
        "perturb.noise_matrix_mb": 0.0 if spec.noise_matrix is None else spec.noise_matrix.nbytes / 1e6,
        "model.infer_s": infer_s,
        "model.infer_rows": total("model.infer", "rows"),
        "model.infer_gflop_computed": gflop,
        "model.infer_gflops": gflop / infer_s if infer_s > 0 else 0.0,
        "calibrate.center_scale_s": total("calibrate.center_scale"),
        "calibrate.score_s": total("calibrate.score"),
        "calibrate.held_mb_computed": max(held) / 1e6,
        "calibrate.tau_floor": float(extras["tau_floor"]),
        "pca.deflate_s": total("pca.deflate"),
        "pca.deflate_iters": float(basis.iterations.sum()) if basis is not None else 0.0,
        "pca.deflate_converged_frac": float(basis.converged.mean()) if basis is not None else 0.0,
        "pca.deflate_residual_max": (
            deflate_residual_max(extras["train_outputs"], basis) if basis is not None else 0.0
        ),
        "hull.build_s": total("hull.build"),
        "hull.degenerate": float(extras.get("hull_degenerate", False)),
        "hull.clip_s": clip_s,
        "hull.clip_points": clip_points,
        "hull.clip_us_per_point": 1e6 * clip_s / clip_points if clip_points else 0.0,
        "hull.interior_hit_frac": total("hull.interior_mask", "hits") / clip_points if clip_points else 0.0,
        "hull.inside_frac": total("hull.clip", "inside") / clip_points if clip_points else 0.0,
        "verify.pixel_status_s": total("verify.pixel_status"),
        "verify.audit_rows": audit_rows,
        "guarantees.delta2": g.confidence_delta2,
        "guarantees.one_minus_delta2": g.confidence_miscoverage,
    }
    return {k: float(v) for k, v in m.items()}
