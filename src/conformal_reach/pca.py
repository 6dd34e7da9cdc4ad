"""Deflation-based principal directions of an output point cloud.

Directions are extracted one at a time: projected gradient ascent on the
uncentered second-moment objective J(a) = (1/t) sum_j (a^T z_j)^2 over the
unit sphere (a damped power iteration), then removal of the found
component. The n x n moment matrix is never formed, and neither is a copy
of the read-only (t, n) cloud Y: the deflated cloud is Z = Y P, with P the
projection off the found directions, so Z a = Y P a. The ascent has two
forms, whose steps agree up to rounding. When t <= n it runs in the
eigenbasis of one Gram matrix Y Y^T = U diag(lam) U^T: the iterate
a = Y^T U c is kept as c, so Y a = U (lam c), |a|^2 = c . lam c, and a
step is O(t N) elementwise work. It holds the Gram, its eigendecomposition
and LAPACK's workspace (about 5 t^2 floats). ``eigh`` is O(t^3): at t in
the thousands it would cost more than the ascent. When t > n, and from
the first direction past the Gram's numerical rank or whose start (the
column sum less the found directions) vanishes, each step takes w = Y a
and the gradient Y^T w with the found directions projected out, so it
holds only vectors. No mean is subtracted: downstream algebra projects
raw logit vectors through A, so the basis describes second moments about
the origin. A basis is not saved: rerunning the pipeline from its
manifest rebuilds it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    read only and never copied."""
    Y = np.asarray(train_vectors, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValueError("train_vectors must be a non-empty (t, n) array")
    if not np.all(np.isfinite(Y)):
        raise ValueError("train_vectors must be finite")
    t, n = Y.shape
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
    ysum = Y.sum(axis=0)  # the column sum Y^T 1
    eigen = t <= n
    if eigen:
        lam, U = np.linalg.eigh(Y @ Y.T)
        # eigenvalues within eigh's error of 0 are rounding: past that
        # numerical rank only dust is left to ascend, which the cloud form takes
        rank = np.count_nonzero(lam > t * np.finfo(float).eps * lam[-1])
        lam = np.maximum(lam, 0.0)  # a PSD Gram's negative eigenvalues are rounding
        # found direction j is a_j = Y^T U C[j], and <a_j, Y^T U c> = W[j] @ c
        C, W = np.zeros((num_components, t)), np.zeros((num_components, t))
        csum = U.sum(axis=0)  # Y^T 1 as c

    for index in range(num_components):
        start = _project(ysum, cols)
        start_norm = np.linalg.norm(start)
        eigen = eigen and index < rank and start_norm >= _INIT_FALLBACK_NORM
        if eigen:
            c = csum - C[:index].T @ (W[:index] @ csum)
            c /= np.sqrt(float(c @ (lam * c)))
            w = lam * c  # U^T Y a
        else:  # the cloud form from here on
            a = start / start_norm if start_norm >= _INIT_FALLBACK_NORM else _cartesian(cols, n)
            w = Y @ a
        j_prev = float(w @ w) / t
        for it in range(1, _MAX_ITERS + 1):
            # a += step * grad / (2 J) with grad = 2 Z^T w / t = 2 P Y^T w / t
            if eigen:
                c = c + _STEP_SIZE * (2.0 * w / t) / max(2.0 * j_prev, _TINY)
                c -= C[:index].T @ (W[:index] @ c)
                c /= np.sqrt(float(c @ (lam * c)))
                w = lam * c
            else:
                a = a + _STEP_SIZE * (2.0 * _project(Y.T @ w, cols) / t) / max(2.0 * j_prev, _TINY)
                a /= np.linalg.norm(a)
                w = Y @ a
            j_cur = float(w @ w) / t
            if j_cur - j_prev <= _TOL * max(j_prev, _TINY):
                converged[index] = True
                iterations[index] = it
                break
            j_prev = j_cur
        else:
            iterations[index] = _MAX_ITERS
        if eigen:
            a = Y.T @ (U @ c)
        # re-orthogonalize against earlier directions; this moves a by float
        # dust, unless the cloud's rank has run out and the ascent climbed
        # back into them, when the Cartesian completion replaces a
        before = np.linalg.norm(a)
        a = _project(a, cols)
        norm = np.linalg.norm(a)
        if norm <= 0.5 * before:
            a, norm = _cartesian(cols, n), 1.0
        a /= norm
        # sign convention: largest-magnitude entry positive, comparable runs
        sign = -1.0 if a[np.argmax(np.abs(a))] < 0 else 1.0
        a = sign * a
        if eigen:
            C[index] = sign * c / norm
            w = W[index] = lam * C[index]
        else:
            w = Y @ a
        rayleigh[index] = float(w @ w) / t
        cols.append(a)

    return ProjectionBasis(
        matrix=np.stack(cols, axis=1), rayleigh=rayleigh, iterations=iterations, converged=converged
    )


def _cartesian(cols, n: int) -> np.ndarray:
    """The first Cartesian direction with a residual against the extracted
    ones, that residual normalized."""
    for k in range(n):
        a = np.zeros(n)
        a[k] = 1.0
        a = _project(a, cols)
        norm = np.linalg.norm(a)
        if norm >= 1e-8:
            return a / norm
    raise ValueError("could not construct an initial direction")


def _project(a: np.ndarray, cols) -> np.ndarray:
    """a less its components along the orthonormal ``cols``, one at a time."""
    for prev in cols:
        a = a - (prev @ a) * prev
    return a
