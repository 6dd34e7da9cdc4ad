"""Pixel-status detection, robustness metrics, and end-to-end pipelines.

Per pixel, the class whose logit interval has the highest lower bound is
the only candidate winner; if that lower bound fails to clear every other
class's upper bound the pixel is unknown, otherwise it is robust or
non-robust depending on whether the candidate matches the unperturbed
prediction. Ties at equality are conservatively unknown.

Both pipelines share one driver. A construction is a residual map y ->
q = y - g(y) and lifts, the bounds of g's reachset; the driver fits center
and scales of q on one seeded stage, scores q on the ``calib`` stage, each
read block by block without holding its (count, n) outputs, and inflates
the lifts by that box (``calibrate.ReachSet``). The naive box is g = 0:
the identity map with zero lifts. The surrogate's g is the convex hull of
``hull``, fitted on the ``train`` cloud, the one stage held whole: in the
stream's own stage buffer, with no copy, when the stage is one block.

Each run's manifest is its one record: the seed, sizes, guarantee and
perturbation that reproduce it, and under ``"stages"`` every stage it
ran, in order, with its sample count and wall time. It is the one record
of the guarantee too: the reachset and the pixel mask carry none. A rerun
gives the same bits at the same BLAS thread count; at another, a threaded
product may sum in another order, so the outputs can move by rounding (on
one 32x32x3 l2-ball surrogate run, the intervals differ by 2e-15 between
one and two OpenBLAS threads; the iteration counts and labels do not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .calibrate import ReachSet, center_and_scales, stream_calibration
from .guarantees import guarantee_confidence
from .hull import HullModel, clip_batch
from .model import MlpNetwork, LogitTensor, block_rows, infer, predict_mask, row_block, row_slices
from .pca import deflate
from .perturb import PerturbationSpec, spec_manifest, stage_outputs
from ._seeds import check_integer

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
]

STATUS_UNKNOWN = 0
STATUS_ROBUST = 1
STATUS_NONROBUST = 2


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the stage name leads the message."""


@dataclass(frozen=True)
class PixelStatusMask:
    """Per-pixel trichotomy plus the robustness-value summary."""

    status: np.ndarray  # (h, w) uint8 of STATUS_* codes
    baseline_mask: np.ndarray  # (h, w) 1-based class indices
    rv: float

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
    degenerate: bool = False  # certified widths unusable (inf/zero sum)


# ``guarantee`` is read by no one: perfbench/replay.py passes it, until
# ROADMAP direction 16 removes it
def pixel_status(
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    baseline_mask: np.ndarray,
    guarantee=None,
) -> PixelStatusMask:
    """Label every pixel robust / non-robust / unknown from logit intervals.

    ``y_lo``/``y_hi`` are (h, w, L) interval bounds, ``baseline_mask``
    the (h, w) 1-based prediction on the clean image. Bounds are read as
    float64.
    """
    y_lo, y_hi = np.asarray(y_lo, dtype=np.float64), np.asarray(y_hi, dtype=np.float64)
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
    return PixelStatusMask(status=status, baseline_mask=baseline_mask.copy(), rv=rv)


def _check_sizes(seed, **sizes):
    """The seed must be a non-negative integer and each size (a sample
    count, or the number of components) a positive one."""
    check_integer("seed", seed, 0)
    for name, value in sizes.items():
        check_integer(name, value, 1)


def _stage(name, fn, rows, stages):
    """Run one pipeline stage of ``rows`` samples and append its record to
    ``stages``; a failure is re-raised with its name first."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise PipelineStageError(f"{name}: {exc}") from exc
    stages.append(dict(stage=name, rows=int(rows), seconds=time.perf_counter() - start))
    return out


def _lifted_blocks(V, A):
    """(rows, ``V[rows] @ A.T``) for the row blocks of V in order
    (``row_slices``, so no lone row takes the matrix-vector call), each
    product formed in one reused buffer and valid until the next."""
    k, rows = V.shape[0], row_block(A.shape[0])
    buf = np.empty((min(k, rows + 1), A.shape[0]))
    for block in row_slices(k, rows):
        yield block, np.matmul(V[block], A.T, out=buf[: block.stop - block.start])


def _certify(model, spec, seed, epsilon, rank_ell, calib_size, fit, manifest):
    """Check the input and output sizes before the first draw; take
    (residual, lift_lb, lift_ub, (name, stream, count)) from the
    construction's ``fit``; fit center and scales of the residuals on that
    stage and calibrate them on ``calib_size`` more, both recorded under
    ``manifest["stages"]``; label the pixels and add the common keys."""
    h, w, n = spec.base_image.height, spec.base_image.width, model.output_dim
    if model.input_dim != spec.base_image.size:
        raise ValueError(f"input dim {model.input_dim} != image size {spec.base_image.size}")
    if n % (h * w) != 0:
        raise ValueError(f"output dim {n} is not a multiple of pixel count {h * w}")
    shape = (h, w, n // (h * w))
    guarantee = guarantee_confidence(epsilon, rank_ell, calib_size)
    residual, lift_lb, lift_ub, (name, stream, count) = fit()
    stages = manifest["stages"]

    def residuals(stage, k):
        # each residual is formed in the stage's one reused output buffer
        return map(residual, stage_outputs(model, spec, seed, stage, k))

    cs = _stage(name, lambda: center_and_scales(residuals(stream, count)), count, stages)
    calib = _stage(
        "calibrate", lambda: stream_calibration(residuals("calib", calib_size), cs), calib_size, stages
    )
    sigma = cs.tau * calib.rank_score(rank_ell)
    reachset = ReachSet(cs.center, sigma, lift_lb, lift_ub)
    lo, hi = reachset.project_intervals()
    baseline = predict_mask(LogitTensor(*shape, infer(model, spec.base_image.data)))
    mask = pixel_status(lo.reshape(shape), hi.reshape(shape), baseline)
    manifest.update(
        calib_size=guarantee.calib_size_m,
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
    """Hyper-rectangle reachset straight from raw-output scores: the
    construction with g = 0, so zero lifts.

    Returns (reachset, mask, manifest); the manifest records every seed and
    size needed to reproduce the run bit for bit, and each stage's sample
    count and wall time under ``"stages"``.
    """
    _check_sizes(seed, train_size=train_size)
    manifest = dict(pipeline="naive", seed=int(seed), train_size=int(train_size), stages=[])

    def fit():
        n = model.output_dim
        return (lambda Y: Y), np.zeros(n), np.zeros(n), ("train", "train", train_size)

    return _certify(model, spec, seed, epsilon, rank_ell, calib_size, fit, manifest)


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
):
    """Hull-plus-inflation reachset; same contract as the naive pipeline.

    Stage order: train the basis and hull on ``train_size`` samples and
    bound the lifted hull, fit the normalization of q = f - g on
    ``aux_size`` separate samples, then calibrate it on ``calib_size`` more.
    The manifest adds the flags ``hull_degenerate`` and ``deflation_converged``.
    """
    _check_sizes(seed, train_size=train_size, aux_size=aux_size, num_components=num_components)
    limit = min(model.output_dim, train_size)
    if num_components > limit:
        raise ValueError(
            f"num_components must be at most min(output_dim, train_size) = {limit}, "
            f"got {num_components!r}"
        )
    manifest = dict(
        pipeline="surrogate", seed=int(seed), train_size=int(train_size),
        aux_size=int(aux_size), num_components=int(num_components), stages=[],
    )

    def train():
        # deflation reads the whole cloud. A stage of one block is the
        # stream's own stage buffer, taken once the stream has run to its
        # end and freed its image rows; a longer stage copies each block
        # out of that reused buffer. The cloud is freed when this returns
        blocks = stage_outputs(model, spec, seed, "train", train_size)
        if train_size <= block_rows(model) + 1:
            (Y,) = blocks
        else:
            Y = np.empty((train_size, model.output_dim))
            row = 0
            for block in blocks:
                Y[row : row + block.shape[0]] = block
                row += block.shape[0]
            del block  # frees the stage's buffer before deflation
        basis = deflate(Y, num_components)
        V = Y @ basis.matrix
        hull = HullModel.from_points(V)
        # bounds of the lifted cloud V @ A.T, one row block at a time
        lift_lb = np.full(model.output_dim, np.inf)
        lift_ub = np.full(model.output_dim, -np.inf)
        for _, lifted in _lifted_blocks(V, basis.matrix):
            np.minimum(lift_lb, lifted.min(axis=0), out=lift_lb)
            np.maximum(lift_ub, lifted.max(axis=0), out=lift_ub)
        manifest["hull_degenerate"] = hull.degenerate
        manifest["deflation_converged"] = bool(basis.converged.all())

        def residual(Y):
            V_hat, _ = clip_batch(Y @ basis.matrix, hull)
            for rows, lifted in _lifted_blocks(V_hat, basis.matrix):
                Y[rows] -= lifted
            return Y

        return residual, lift_lb, lift_ub, ("normalize", "aux", aux_size)

    def fit():
        return _stage("train", train, train_size, manifest["stages"])

    return _certify(model, spec, seed, epsilon, rank_ell, calib_size, fit, manifest)


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

    The bounds must hold one value per network output, none NaN, with
    ``y_lo <= y_hi``; infinite bounds are allowed and flag the report
    degenerate. A NaN or infinite audit output raises ``ValueError``.
    """
    _check_sizes(seed, sample_count=sample_count)
    n = model.output_dim
    y_lo = np.asarray(y_lo, dtype=np.float64).reshape(-1)
    y_hi = np.asarray(y_hi, dtype=np.float64).reshape(-1)
    if y_lo.size != n or y_hi.size != n:
        raise ValueError(f"bounds must hold {n} values each, got {y_lo.size} and {y_hi.size}")
    if np.isnan(y_lo).any() or np.isnan(y_hi).any():
        raise ValueError("bounds must not be NaN")
    if np.any(y_lo > y_hi):
        raise ValueError("y_lo must be <= y_hi componentwise")
    if model.input_dim != spec.base_image.size:
        raise ValueError(f"input dim {model.input_dim} != image size {spec.base_image.size}")
    misses = 0
    emp_lo = np.full(n, np.inf)
    emp_hi = np.full(n, -np.inf)
    # each row block is read once: the envelope, whose min and max are
    # exact in any order, then the miss test on the columns where the
    # block's envelope leaves the bounds
    for Y in stage_outputs(model, spec, seed, "audit", sample_count):
        for rows in row_slices(Y.shape[0], row_block(n)):
            block = Y[rows]
            block_lo, block_hi = block.min(axis=0), block.max(axis=0)
            cols = np.flatnonzero((block_lo < y_lo) | (block_hi > y_hi))
            sub = block[:, cols]
            misses += int(np.sum(np.any((sub < y_lo[cols]) | (sub > y_hi[cols]), axis=1)))
            np.minimum(emp_lo, block_lo, out=emp_lo)
            np.maximum(emp_hi, block_hi, out=emp_hi)
    # min and max carry NaN and +-inf into the envelope, so it sees them all
    if not (np.all(np.isfinite(emp_lo)) and np.all(np.isfinite(emp_hi))):
        raise ValueError("audit outputs must be finite: an audit output is NaN or infinite")
    certified = np.sum(y_hi - y_lo)
    degenerate = bool(not np.isfinite(certified) or certified <= 0.0)
    ratio = 0.0 if degenerate else float(np.sum(emp_hi - emp_lo) / certified)
    return ConservatismReport(
        eps_hat=misses / sample_count,
        bound_ratio=ratio,
        empirical_lo=emp_lo,
        empirical_hi=emp_hi,
        degenerate=degenerate,
    )
