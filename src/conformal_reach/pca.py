"""Deflation-based principal directions of an output point cloud.

Directions are extracted one at a time: projected gradient ascent on the
uncentered second-moment objective J(a) = (1/t) sum_j (a^T z_j)^2 over the
unit sphere (a damped power iteration), then removal of the found
component from every vector before the next round. The n x n moment
matrix is never formed. The iterate always lies in span{p} + rowspace(Z),
p the round's start vector and Z the (deflated) t x n cloud, so it is kept
as a = beta p + Z^T u and each ascent step costs one product with the
t x t Gram matrix G = Z Z^T, rebuilt from the deflated cloud every round;
a itself is formed once per direction. Memory: the deflated copy of the
cloud, one t x t G at a time (larger than the cloud when t > n) and one
row block of the rank-one term removed from the copy. No mean subtraction
anywhere: downstream algebra projects raw logit vectors through A, so the
basis must describe second moments about the origin, not the mean. The
ascent's step, cap and tolerance are module constants. A basis is not
saved: rerunning the pipeline from its manifest rebuilds it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import row_block, row_slices
from ._seeds import check_integer

__all__ = ["ProjectionBasis", "deflate"]

_INIT_FALLBACK_NORM = 1e-14
_TINY = 1e-300
# The ascent's step (relative to the current objective; any positive value
# converges, larger is closer to pure power iteration), its per-direction
# cap (hitting it is flagged in ``converged``, not raised) and its stopping
# test on the relative objective gain. They tune speed and tightness only:
# the guarantee holds for any basis fitted on ``train`` alone.
_STEP_SIZE = 10.0
_MAX_ITERS = 10_000
_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal principal directions stored as columns of ``matrix``.

    ``rayleigh[k]`` is the objective attained by column k against the
    stage-k (pre-deflation) second-moment operator; ``iterations`` and
    ``converged`` record the ascent's termination per direction.
    """

    matrix: np.ndarray  # (n, N)
    rayleigh: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    @property
    def num_components(self) -> int:
        return self.matrix.shape[1]


def deflate(train_vectors: np.ndarray, num_components: int) -> ProjectionBasis:
    """Extract the top ``num_components`` = N principal directions of the
    (t, n) cloud ``train_vectors``, with 1 <= N <= min(n, t). The cloud is
    read only (an internal copy is deflated)."""
    Z = np.array(train_vectors, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 1:
        raise ValueError("train_vectors must be a non-empty (t, n) array")
    if not np.all(np.isfinite(Z)):
        raise ValueError("train_vectors must be finite")
    t, n = Z.shape
    check_integer("num_components", num_components, 1)
    if num_components > min(n, t):
        raise ValueError(
            f"num_components must lie in [1, min(n, t)] = [1, {min(n, t)}], "
            f"got {num_components}"
        )

    cols = []
    rayleigh = np.empty(num_components)
    iterations = np.zeros(num_components, dtype=np.int64)
    converged = np.zeros(num_components, dtype=bool)

    for index in range(num_components):
        # a = beta * p + Z^T u, so Z a = beta * Zp + G u
        p = _initial_direction(Z, cols, n)
        zp = Z @ p
        pp = float(p @ p)
        G = Z @ Z.T
        beta = 1.0
        u = np.zeros(t)
        w = zp  # Z a
        j_prev = float(w @ w) / t
        for it in range(1, _MAX_ITERS + 1):
            # a += step * grad / (2 J) with grad = 2 Z^T w / t
            u = u + _STEP_SIZE * (2.0 * w / t) / max(2.0 * j_prev, _TINY)
            Gu = G @ u
            norm = np.sqrt(beta * beta * pp + 2.0 * beta * float(zp @ u) + float(u @ Gu))
            beta /= norm
            u /= norm
            w = beta * zp + Gu / norm
            j_cur = float(w @ w) / t
            if j_cur - j_prev <= _TOL * max(j_prev, _TINY):
                converged[index] = True
                iterations[index] = it
                break
            j_prev = j_cur
        else:
            iterations[index] = _MAX_ITERS
        a = beta * p + Z.T @ u
        del G  # the next direction's Gram must not form beside this one
        # re-orthogonalize against earlier directions; this only moves a by
        # float dust but keeps the pairwise-orthogonality contract unconditional
        for prev in cols:
            a = a - (prev @ a) * prev
        a /= np.linalg.norm(a)
        # sign convention: largest-magnitude entry positive, comparable runs
        if a[np.argmax(np.abs(a))] < 0:
            a = -a
        w = Z @ a
        rayleigh[index] = float(w @ w) / t
        cols.append(a)
        # one row block of the rank-one term at a time, so no (t, n)
        # temporary forms beside Z and G; each entry is rounded the same
        for rows in row_slices(t, row_block(n)):
            Z[rows] -= np.outer(w[rows], a)

    return ProjectionBasis(
        matrix=np.stack(cols, axis=1),
        rayleigh=rayleigh,
        iterations=iterations,
        converged=converged,
    )


def _initial_direction(Z: np.ndarray, cols, n: int) -> np.ndarray:
    """Deterministic start: normalized vector sum of the stage's cloud,
    which already lies orthogonal to every extracted direction. Falls back
    to the first Cartesian direction with a nonzero residual against the
    extracted ones when the sum degenerates."""
    a = Z.sum(axis=0)
    norm = np.linalg.norm(a)
    if norm >= _INIT_FALLBACK_NORM:
        return a / norm
    for k in range(n):
        a = np.zeros(n)
        a[k] = 1.0
        for prev in cols:
            a = a - (prev @ a) * prev
        norm = np.linalg.norm(a)
        if norm >= 1e-8:
            return a / norm
    raise ValueError("could not construct an initial direction")
