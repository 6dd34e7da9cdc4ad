"""Conformal calibration on vector-valued outputs.

Training outputs give a center (their mean) and per-coordinate
normalization factors; nonconformity of an output is the max normalized
coordinate deviation from the center. Sorting the calibration scores and
reading off rank ell turns those factors into a hyper-rectangular reachset
whose membership test is exactly "score <= threshold".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .guarantees import GuaranteeSpec

__all__ = [
    "CenterScale",
    "CalibrationSet",
    "HyperRectReachSet",
    "center_and_scales",
    "nonconformity",
    "nonconformity_batch",
    "build_calibration",
    "stream_calibration",
    "naive_reachset",
]

# The paper's tau* already guards against zero normalization, but an
# all-identical training cloud makes tau* itself zero; this absolute floor
# keeps the division defined in that degenerate case.
TAU_ABSOLUTE_FLOOR = 1e-12

# Rows whose deviations are formed at once when scoring: a (64, n) block
# stays in cache for n up to about 16k, so the elementwise passes over it
# do not go out to memory. Scores do not depend on it.
_SCORE_ROWS = 64


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
    source: str = "raw-outputs"

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
class HyperRectReachSet:
    """Axis-aligned box: interval k is [center(k) - sigma(k), center(k) + sigma(k)]."""

    center: np.ndarray
    sigma: np.ndarray
    guarantee: GuaranteeSpec

    def __post_init__(self):
        if self.center.shape != self.sigma.shape:
            raise ValueError("center/sigma shapes differ")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")

    def project_intervals(self):
        return self.center - self.sigma, self.center + self.sigma


def center_and_scales(train_outputs: np.ndarray) -> CenterScale:
    """Center and normalization factors from t training outputs (t, n).

    tau* is 1e-5 times the mean absolute deviation over the whole cloud;
    tau_k is the larger of tau* and the max absolute deviation seen in
    coordinate k.
    """
    y = np.asarray(train_outputs, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("train_outputs must be a non-empty (t, n) array")
    c = y.mean(axis=0)
    dev = y - c
    np.abs(dev, out=dev)
    tau_star = 1e-5 * dev.sum() / (y.shape[0] * y.shape[1])
    degenerate = False
    if tau_star < TAU_ABSOLUTE_FLOOR:
        tau_star = TAU_ABSOLUTE_FLOOR
        degenerate = True
    tau = np.maximum(tau_star, dev.max(axis=0))
    return CenterScale(center=c, tau=tau, tau_star=tau_star, degenerate=degenerate)


def nonconformity(y: np.ndarray, cs: CenterScale) -> float:
    """max_k |y(k) - c(k)| / tau_k for a single output vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != cs.center.shape:
        raise ValueError(f"shape {y.shape} disagrees with center {cs.center.shape}")
    return float(np.max(np.abs(y - cs.center) / cs.tau))


def nonconformity_batch(ys: np.ndarray, cs: CenterScale) -> np.ndarray:
    """Scores for a (k, n) batch of outputs.

    Deviations are formed in place, one reused block of rows at a time,
    so scoring holds O(n) beyond its input; each row's score is the same
    whatever the blocking.
    """
    ys = np.asarray(ys, dtype=np.float64)
    k = ys.shape[0]
    scores = np.empty(k)
    buf = np.empty((min(k, _SCORE_ROWS),) + ys.shape[1:])
    for start in range(0, k, _SCORE_ROWS):
        block = ys[start : start + _SCORE_ROWS]
        dev = buf[: block.shape[0]]
        np.subtract(block, cs.center, out=dev)
        np.abs(dev, out=dev)
        np.divide(dev, cs.tau, out=dev)
        np.max(dev, axis=1, out=scores[start : start + _SCORE_ROWS])
    return scores


def build_calibration(
    outputs: np.ndarray, cs: CenterScale, source: str = "raw-outputs"
) -> CalibrationSet:
    """Score m outputs and store the scores sorted ascending (stable)."""
    ys = np.asarray(outputs, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[0] < 1:
        raise ValueError("outputs must be a non-empty (m, n) array")
    return stream_calibration([ys], cs, source)


def stream_calibration(
    blocks, cs: CenterScale, source: str = "raw-outputs"
) -> CalibrationSet:
    """``build_calibration`` of the stacked blocks, scoring each (k, n)
    block as it arrives so the (m, n) outputs are never held at once."""
    scores = []
    for Y in blocks:
        scores.append(nonconformity_batch(Y, cs))
        del Y  # free this block before the stream builds the next
    scores = np.sort(np.concatenate(scores), kind="stable")
    return CalibrationSet(scores=scores, source=source)


def naive_reachset(
    calib: CalibrationSet, cs: CenterScale, guarantee: GuaranteeSpec
) -> HyperRectReachSet:
    """Hyper-rectangle with half-widths sigma_k = tau_k * (rank-ell score).

    Membership equivalence: nonconformity(y) <= rank score iff y lies in
    the box, which is what makes the scalar guarantee transfer.
    """
    if guarantee.calib_size_m != calib.size:
        raise ValueError(
            f"guarantee was computed for m={guarantee.calib_size_m}, "
            f"calibration set has {calib.size}"
        )
    threshold = calib.rank_score(guarantee.rank_ell)
    return HyperRectReachSet(
        center=cs.center.copy(),
        sigma=cs.tau * threshold,
        guarantee=guarantee,
    )
