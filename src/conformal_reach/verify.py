"""Pixel-status detection, robustness metrics, and end-to-end pipelines.

Per pixel, the class whose logit interval has the highest lower bound is
the only candidate winner; if that lower bound fails to clear every other
class's upper bound the pixel is unknown, otherwise it is robust or
non-robust depending on whether the candidate matches the unperturbed
prediction. Ties at equality are conservatively unknown.

Both pipelines live here and share one conformal step: fit center and
scales on the residuals of one seeded stage, then score the residuals of
the ``calib`` stage. The naive box calibrates the raw outputs (the residual
of the surrogate g = 0); the surrogate pipeline calibrates q = f - g of the
convex-hull surrogate in ``hull``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import center_and_scales, naive_reachset, stream_calibration
from .guarantees import GuaranteeSpec, guarantee_confidence
from .hull import HullModel, SurrogateReachSet, clip_batch, stage_outputs
from .model import MlpNetwork, infer, predict_mask, write_pgm_bytes, LogitTensor
from .pca import deflate
from .perturb import PerturbationSpec, spec_manifest

__all__ = [
    "STATUS_UNKNOWN",
    "STATUS_ROBUST",
    "STATUS_NONROBUST",
    "PixelStatusMask",
    "ConservatismReport",
    "PipelineStageError",
    "pixel_status",
    "run_naive_pipeline",
    "run_surrogate_pipeline",
    "conservatism_audit",
    "status_pgm_bytes",
]

STATUS_UNKNOWN = 0
STATUS_ROBUST = 1
STATUS_NONROBUST = 2

# mask export convention: white robust, mid-gray non-robust, black unknown
_PGM_LEVELS = {STATUS_ROBUST: 255, STATUS_NONROBUST: 128, STATUS_UNKNOWN: 0}


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the stage name leads the message."""


@dataclass(frozen=True)
class PixelStatusMask:
    """Per-pixel trichotomy plus the robustness-value summary."""

    status: np.ndarray  # (h, w) uint8 of STATUS_* codes
    baseline_mask: np.ndarray  # (h, w) 1-based class indices
    rv: float
    guarantee: GuaranteeSpec

    @property
    def counts(self) -> dict:
        return {
            "robust": int(np.sum(self.status == STATUS_ROBUST)),
            "nonrobust": int(np.sum(self.status == STATUS_NONROBUST)),
            "unknown": int(np.sum(self.status == STATUS_UNKNOWN)),
        }


@dataclass(frozen=True)
class ConservatismReport:
    """Empirical miscoverage and width ratio of a certified interval box."""

    eps_hat: float
    bound_ratio: float
    empirical_lo: np.ndarray
    empirical_hi: np.ndarray
    sample_count: int
    degenerate: bool = False  # certified widths unusable (inf/zero sum)

    def as_dict(self) -> dict:
        return {
            "eps_hat": self.eps_hat,
            "bound_ratio": self.bound_ratio,
            "sample_count": self.sample_count,
            "degenerate": self.degenerate,
        }


def pixel_status(
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    baseline_mask: np.ndarray,
    guarantee: GuaranteeSpec,
) -> PixelStatusMask:
    """Label every pixel robust / non-robust / unknown from logit intervals.

    ``y_lo``/``y_hi`` are (h, w, L) interval bounds, ``baseline_mask``
    the (h, w) 1-based prediction on the clean image.
    """
    if y_lo.shape != y_hi.shape or y_lo.ndim != 3:
        raise ValueError(f"bound shapes disagree: {y_lo.shape} vs {y_hi.shape}")
    # NaN fails every comparison below, which would certify the pixel
    if not (np.all(np.isfinite(y_lo)) and np.all(np.isfinite(y_hi))):
        raise ValueError("y_lo and y_hi must be finite")
    if np.any(y_lo > y_hi):
        raise ValueError("y_lo must be <= y_hi componentwise")
    h, w, L = y_lo.shape
    if baseline_mask.shape != (h, w):
        raise ValueError("baseline mask shape disagrees with bounds")

    l_star = np.argmax(y_lo, axis=2)  # ties -> lowest class index
    lo_star = np.take_along_axis(y_lo, l_star[:, :, None], axis=2)[:, :, 0]
    masked_hi = y_hi.copy()
    np.put_along_axis(masked_hi, l_star[:, :, None], -np.inf, axis=2)
    best_other = masked_hi.max(axis=2)

    unknown = lo_star <= best_other
    winner_is_baseline = (l_star + 1) == baseline_mask
    status = np.where(
        unknown,
        STATUS_UNKNOWN,
        np.where(winner_is_baseline, STATUS_ROBUST, STATUS_NONROBUST),
    ).astype(np.uint8)
    rv = 100.0 * float(np.sum(status == STATUS_ROBUST)) / (h * w)
    return PixelStatusMask(
        status=status, baseline_mask=baseline_mask.copy(), rv=rv, guarantee=guarantee
    )


def _stage(name, fn):
    """Run one pipeline stage; a failure is re-raised with its name first."""
    try:
        return fn()
    except Exception as exc:
        raise PipelineStageError(f"{name}: {exc}") from exc


def _conformal_step(model, spec, seed, residual, fit, calib_size, source):
    """Center and scales of ``residual`` over the stage ``fit`` = (name,
    stream, count), then the calibration set of ``calib_size`` residual
    scores, each ``calib`` block scored as it arrives."""
    name, stream, count = fit

    def residuals(stage, k):
        # map holds no block, so each is freed once scored
        return map(residual, stage_outputs(model, spec, seed, stage, k))

    cs = _stage(name, lambda: center_and_scales(np.vstack(list(residuals(stream, count)))))
    calib = _stage(
        "calibrate",
        lambda: stream_calibration(residuals("calib", calib_size), cs, source),
    )
    return cs, calib


def _certify(model, spec, epsilon, rank_ell, calib_size, build, manifest):
    """Shared driver: check the output shape before the first draw, take
    (reachset, center_scale, calibration) from ``build(guarantee)``, then
    label the pixels and complete ``manifest`` with the common keys."""
    h, w, n = spec.base_image.height, spec.base_image.width, model.output_dim
    if n % (h * w) != 0:
        raise ValueError(f"output dim {n} is not a multiple of pixel count {h * w}")
    shape = (h, w, n // (h * w))
    guarantee = guarantee_confidence(epsilon, rank_ell, calib_size)
    reachset, cs, calib = build(guarantee)
    lo, hi = reachset.project_intervals()
    baseline = predict_mask(LogitTensor(*shape, infer(model, spec.base_image.data)))
    mask = pixel_status(lo.reshape(shape), hi.reshape(shape), baseline, guarantee)
    manifest.update(
        guarantee=guarantee.as_dict(),
        rank_score=calib.rank_score(rank_ell),
        tau_star=cs.tau_star,
        degenerate_scales=cs.degenerate,
        perturbation=spec_manifest(spec),
    )
    return reachset, mask, manifest


def run_naive_pipeline(
    model: MlpNetwork,
    spec: PerturbationSpec,
    train_size: int,
    calib_size: int,
    epsilon: float,
    rank_ell: int,
    seed: int = 0,
):
    """Hyper-rectangle reachset straight from raw-output scores.

    Returns (reachset, mask, manifest); the manifest records every seed and
    size needed to reproduce the run bit for bit.
    """
    manifest = dict(
        pipeline="naive", seed=seed, train_size=train_size, calib_size=calib_size
    )

    def build(guarantee):
        cs, calib = _conformal_step(
            model, spec, seed, lambda Y: Y, ("train", "train", train_size),
            calib_size, "raw-outputs",
        )
        return naive_reachset(calib, cs, guarantee), cs, calib

    return _certify(model, spec, epsilon, rank_ell, calib_size, build, manifest)


def run_surrogate_pipeline(
    model: MlpNetwork,
    spec: PerturbationSpec,
    train_size: int,
    calib_size: int,
    aux_size: int,
    num_components: int,
    epsilon: float,
    rank_ell: int,
    seed: int = 0,
    norm: str = "l_inf",
):
    """Hull-plus-inflation reachset; same contract as the naive pipeline.

    Stage order: train the basis and hull on ``train_size`` samples and
    bound the lifted hull, fit the normalization of q = f - g on
    ``aux_size`` separate samples, then calibrate it on ``calib_size`` more.
    """
    manifest = dict(
        pipeline="surrogate", seed=seed, train_size=train_size, calib_size=calib_size,
        aux_size=aux_size, num_components=num_components, norm=norm,
    )

    def train():
        Y = np.vstack(list(stage_outputs(model, spec, seed, "train", train_size)))
        basis = deflate(Y, num_components)
        V = Y @ basis.matrix
        lifted = V @ basis.matrix.T
        hull = HullModel.from_points(V, basis=basis)
        return basis, hull, lifted.min(axis=0), lifted.max(axis=0)

    def build(guarantee):
        basis, hull, lift_lb, lift_ub = _stage("train", train)
        manifest["hull_degenerate"] = hull.degenerate

        def residual(Y):
            V_hat, _ = clip_batch(Y @ basis.matrix, hull, norm)
            return Y - V_hat @ basis.matrix.T

        cs, calib = _conformal_step(
            model, spec, seed, residual, ("normalize", "aux", aux_size),
            calib_size, "surrogate-errors",
        )
        reachset = SurrogateReachSet(
            hull=hull,
            basis=basis,
            error_center=cs.center,
            error_sigma=cs.tau * calib.rank_score(guarantee.rank_ell),
            lift_lb=lift_lb,
            lift_ub=lift_ub,
            guarantee=guarantee,
        )
        return reachset, cs, calib

    return _certify(model, spec, epsilon, rank_ell, calib_size, build, manifest)


def conservatism_audit(
    model: MlpNetwork,
    spec: PerturbationSpec,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    sample_count: int,
    seed: int = 0,
) -> ConservatismReport:
    """Sample fresh adversarial inputs and compare certified to empirical
    bounds: eps_hat counts samples escaping [y_lo, y_hi] in any component,
    bound_ratio divides summed empirical widths by summed certified widths.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    y_lo = np.asarray(y_lo, dtype=np.float64).reshape(-1)
    y_hi = np.asarray(y_hi, dtype=np.float64).reshape(-1)
    misses = 0
    emp_lo = np.full(y_lo.shape, np.inf)
    emp_hi = np.full(y_hi.shape, -np.inf)
    for Y in stage_outputs(model, spec, seed, "audit", sample_count):
        misses += int(np.sum(np.any((Y < y_lo) | (Y > y_hi), axis=1)))
        emp_lo = np.minimum(emp_lo, Y.min(axis=0))
        emp_hi = np.maximum(emp_hi, Y.max(axis=0))
        del Y  # free this block before the stream builds the next
    certified = np.sum(y_hi - y_lo)
    degenerate = not np.isfinite(certified) or certified <= 0.0
    ratio = 0.0 if degenerate else float(np.sum(emp_hi - emp_lo) / certified)
    return ConservatismReport(
        eps_hat=misses / sample_count,
        bound_ratio=ratio,
        empirical_lo=emp_lo,
        empirical_hi=emp_hi,
        sample_count=sample_count,
        degenerate=degenerate,
    )


def status_pgm_bytes(mask: PixelStatusMask) -> bytes:
    """Status mask as a binary PGM: 255 robust, 128 non-robust, 0 unknown."""
    levels = np.zeros(mask.status.shape, dtype=np.uint8)
    for code, level in _PGM_LEVELS.items():
        levels[mask.status == code] = level
    return write_pgm_bytes(levels)

