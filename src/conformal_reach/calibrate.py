"""Conformal calibration on vector-valued outputs, and the one reachset.

Training outputs give a center (their mean) and per-coordinate
normalization factors, both running statistics of one in-order pass over
(k, n) blocks, so the (t, n) outputs are never held at once; nonconformity
of an output is the max normalized coordinate deviation from the center.
Sorting the calibration scores and reading off rank ell turns those
factors into a hyper-rectangle of half-widths sigma, whose membership test
is exactly "score <= threshold".

Every construction's reachset is a ``ReachSet``: that box, calibrated on
the residual of a surrogate g, added to the bounds [lift_lb, lift_ub] of
g's own reachset. The naive box is the construction with g = 0: zero lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .guarantees import GuaranteeSpec
from .model import row_block, row_slices

__all__ = [
    "CenterScale",
    "CalibrationSet",
    "ReachSet",
    "center_and_scales",
    "nonconformity_batch",
    "build_calibration",
    "stream_calibration",
    "naive_reachset",
]

# The paper's tau* already guards against zero normalization, but an
# all-identical training cloud makes tau* itself zero; this absolute floor
# keeps the division defined in that degenerate case.
TAU_ABSOLUTE_FLOOR = 1e-12


@dataclass(frozen=True)
class CenterScale:
    """Training-set center c and positive normalization factors tau."""

    center: np.ndarray
    tau: np.ndarray
    tau_star: float
    degenerate: bool = False  # flagged when the absolute floor engaged

    def __post_init__(self):
        if self.center.shape != self.tau.shape:
            raise ValueError("center/tau shapes differ")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        if not np.all(self.tau > 0):
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class CalibrationSet:
    """Sorted nonconformity scores with multiset semantics."""

    scores: np.ndarray  # ascending

    def __post_init__(self):
        if self.scores.ndim != 1 or self.scores.shape[0] < 1:
            raise ValueError("scores must be a non-empty vector")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError(
                "scores must be finite: a calibration output is NaN or infinite"
            )
        if np.any(self.scores < 0):
            raise ValueError("scores must be non-negative")
        if np.any(np.diff(self.scores) < 0):
            raise ValueError("scores must be sorted ascending")

    @property
    def size(self) -> int:
        return self.scores.shape[0]

    def rank_score(self, rank_ell: int) -> float:
        """The ell-th smallest score, 1-indexed."""
        if not (1 <= rank_ell <= self.size):
            raise ValueError(
                f"rank must satisfy 1 <= ell <= {self.size}, got {rank_ell}"
            )
        return float(self.scores[rank_ell - 1])


@dataclass(frozen=True)
class ReachSet:
    """The residual's box over the surrogate's bounds: interval k is
    [center(k) + lift_lb(k) - sigma(k), center(k) + lift_ub(k) + sigma(k)]."""

    center: np.ndarray
    sigma: np.ndarray
    lift_lb: np.ndarray
    lift_ub: np.ndarray

    def __post_init__(self):
        n = np.shape(self.center)
        if len(n) != 1:
            raise ValueError(f"center must be a vector, got shape {n}")
        for name in ("center", "sigma", "lift_lb", "lift_ub"):
            value = getattr(self, name)
            if np.shape(value) != n:
                raise ValueError(f"{name} must have the shape {n} of center, got {np.shape(value)}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if np.any(self.lift_lb > self.lift_ub):
            raise ValueError("lift_lb must be <= lift_ub")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")

    def project_intervals(self):
        return self.center + self.lift_lb - self.sigma, self.center + self.lift_ub + self.sigma


def center_and_scales(train_outputs) -> CenterScale:
    """Center and normalization factors of t training outputs, read once,
    in order, as an iterable of (k, n) blocks; one (t, n) array is one block.

    The center is a running sum, one row at a time, divided by t, which is
    ``y.mean(axis=0)`` bit for bit when n > 1 (numpy sums a lone column
    pairwise instead); the max absolute deviation of coordinate
    k is max(hi_k - c_k, c_k - lo_k) from its running min lo_k and max hi_k,
    which is ``|y - c|.max(axis=0)`` bit for bit because rounding is
    monotone. tau* is 1e-5 times the mean of those max deviations, never
    below 1e-5 times the mean absolute deviation; tau_k is the larger of
    tau* and the max deviation of coordinate k. Any such positive scale,
    fixed before calibration, keeps the guarantee.
    """
    blocks = [train_outputs] if isinstance(train_outputs, np.ndarray) else train_outputs
    total = lo = hi = None
    t = i = 0
    # NaN and inf pass through the sum quietly and fail as a non-finite center
    with np.errstate(invalid="ignore", over="ignore"):
        for Y in blocks:
            Y = np.asarray(Y, dtype=np.float64)
            if Y.ndim != 2:
                raise ValueError(f"train block {i} must be a (k, n) array, got shape {Y.shape}")
            if Y.shape[0] < 1:
                raise ValueError(f"train block {i} has no rows")
            if total is None:
                total, lo, hi = Y[0].copy(), Y[0].copy(), Y[0].copy()
            elif Y.shape[1] != total.shape[0]:
                raise ValueError(
                    f"train block {i} has width {Y.shape[1]}, block 0 has {total.shape[0]}"
                )
            np.minimum(lo, Y.min(axis=0), out=lo)
            np.maximum(hi, Y.max(axis=0), out=hi)
            for row in range(1 if t == 0 else 0, Y.shape[0]):
                total += Y[row]
            t += Y.shape[0]
            i += 1
    if total is None:
        raise ValueError("train_outputs holds no block")
    c = total / t
    if not np.all(np.isfinite(c)):
        raise ValueError("center must be finite: a training output is NaN or infinite")
    max_dev = np.maximum(hi - c, c - lo)
    tau_star = 1e-5 * float(max_dev.mean())
    degenerate = False
    if tau_star < TAU_ABSOLUTE_FLOOR:
        tau_star = TAU_ABSOLUTE_FLOOR
        degenerate = True
    tau = np.maximum(tau_star, max_dev)
    return CenterScale(center=c, tau=tau, tau_star=tau_star, degenerate=degenerate)


def nonconformity_batch(ys: np.ndarray, cs: CenterScale) -> np.ndarray:
    """Scores max_j |y(j) - c(j)| / tau_j of the rows y of a (k, n) batch.

    Deviations are formed in place, one reused block of rows at a time,
    so scoring holds O(n) beyond its input; each row's score is the same
    whatever the blocking.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != cs.center.shape[0]:
        raise ValueError(f"ys must be a (k, {cs.center.shape[0]}) array, got shape {ys.shape}")
    k = ys.shape[0]
    scores = np.empty(k)
    rows = row_block(ys.shape[1])
    buf = np.empty((min(k, rows + 1),) + ys.shape[1:])
    for block in row_slices(k, rows):
        dev = buf[: block.stop - block.start]
        np.subtract(ys[block], cs.center, out=dev)
        np.abs(dev, out=dev)
        np.divide(dev, cs.tau, out=dev)
        np.max(dev, axis=1, out=scores[block])
    return scores


# perfbench/replay.py is its one caller, and ``source`` is read by no one,
# until ROADMAP direction 16 removes both
def build_calibration(
    outputs: np.ndarray, cs: CenterScale, source: str = "raw-outputs"
) -> CalibrationSet:
    """Score m outputs and store the scores sorted ascending (stable)."""
    ys = np.asarray(outputs, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[0] < 1:
        raise ValueError("outputs must be a non-empty (m, n) array")
    return CalibrationSet(np.sort(nonconformity_batch(ys, cs), kind="stable"))


def stream_calibration(blocks, cs: CenterScale) -> CalibrationSet:
    """Scores of the (k, n) ``blocks``, read once, in order, each scored as
    it arrives so the (m, n) outputs are never held at once; sorted
    ascending (stable)."""
    scores = []
    for Y in blocks:
        scores.append(nonconformity_batch(Y, cs))
    if not scores:
        raise ValueError("blocks holds no block")
    return CalibrationSet(scores=np.sort(np.concatenate(scores), kind="stable"))


# perfbench/replay.py is its one caller, until ROADMAP direction 16 removes it
def naive_reachset(
    calib: CalibrationSet, cs: CenterScale, guarantee: GuaranteeSpec
) -> ReachSet:
    """The naive box: zero lifts and half-widths sigma_k = tau_k * (rank-ell
    score), as ``verify.run_naive_pipeline`` builds it.

    Membership equivalence: the score of y (``nonconformity_batch``) is
    <= the rank score iff y lies in the box, which is what makes the
    scalar guarantee transfer.
    """
    if guarantee.calib_size_m != calib.size:
        raise ValueError(
            f"guarantee was computed for m={guarantee.calib_size_m}, "
            f"calibration set has {calib.size}"
        )
    sigma = cs.tau * calib.rank_score(guarantee.rank_ell)
    return ReachSet(cs.center, sigma, np.zeros_like(sigma), np.zeros_like(sigma))
