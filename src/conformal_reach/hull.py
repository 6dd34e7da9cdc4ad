"""Convex-hull surrogate: LP clipping, error inflation, interval bounds.

The surrogate g replaces the network f by projecting reduced logits onto
the convex hull of reduced training logits; its deterministic reachset is
the hull itself. A conformal hyper-rectangle over the residual q = f - g
then inflates the hull (a Minkowski sum realized per component as interval
addition), giving intervals on every logit with the full guarantee.

The projection is a small-row linear program (the hull may have thousands
of generators but the reduced space has N dimensions). Its feasible basis
can be written down at the nearest hull point, so the solver here is a
dense phase-2 revised simplex from that basis, with no phase 1: Dantzig
pricing, switching to Bland's anti-cycling rule under stalling. The
clipping hot loop skips the LP whenever a point certifies as interior via
barycentric coordinates against a greedily chosen inscribed simplex of
hull points; the certificate is exact containment in a sub-hull, so it
never loosens results, and the hull itself always keeps every training
point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibrate import build_calibration, center_and_scales
from .guarantees import GuaranteeSpec, guarantee_confidence
from .model import MlpNetwork, infer
from .pca import ProjectionBasis, deflate, load_basis, save_basis
from .perturb import PerturbationSpec, apply_batch, sample_lambdas
from ._seeds import stage_rng

__all__ = [
    "LpError",
    "HullModel",
    "SurrogateReachSet",
    "clip",
    "clip_batch",
    "surrogate_predict",
    "build_surrogate_reachset",
    "stage_outputs",
    "save_surrogate",
    "load_surrogate",
    "PipelineStageError",
]

_RED_COST_TOL = 1e-10
_PIVOT_TOL = 1e-11
_STALL_LIMIT = 24
_INTERIOR_MARGIN = 1e-9

# Sampling happens in fixed-size blocks so that a run is reproducible from
# its seed regardless of sizes requested downstream.
PIPELINE_CHUNK = 8192


def stage_outputs(
    model: MlpNetwork, spec: PerturbationSpec, seed: int, stage: str, count: int
):
    """Network outputs on ``count`` fresh samples of one pipeline stage,
    yielded in blocks of at most PIPELINE_CHUNK rows from the stage's
    seeded stream."""
    rng = stage_rng(seed, stage)
    for start in range(0, count, PIPELINE_CHUNK):
        k = min(PIPELINE_CHUNK, count - start)
        yield infer(model, apply_batch(spec, sample_lambdas(spec, k, rng)))


class LpError(RuntimeError):
    pass


class PipelineStageError(RuntimeError):
    """A surrogate pipeline stage failed; the stage name leads the message."""


def _iterate(A, b, c, basis, max_iters):
    """Primal revised simplex on min c'x s.t. Ax=b, x>=0 from a feasible
    basis. Dantzig pricing; Bland's rule takes over after a stall."""
    stall = 0
    last_obj = np.inf
    for it in range(max_iters):
        B = A[:, basis]
        try:
            xB = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise LpError(f"singular basis at iteration {it}") from exc
        red = c - y @ A
        red[basis] = 0.0
        if stall >= _STALL_LIMIT:
            negatives = np.nonzero(red < -_RED_COST_TOL)[0]
            if negatives.size == 0:
                return basis, np.maximum(xB, 0.0), it
            q = int(negatives[0])
        else:
            q = int(np.argmin(red))
            if red[q] >= -_RED_COST_TOL:
                return basis, np.maximum(xB, 0.0), it
        d = np.linalg.solve(B, A[:, q])
        positive = d > _PIVOT_TOL
        if not positive.any():
            raise LpError("objective unbounded below")
        ratios = np.full(d.shape, np.inf)
        ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-15)[0]
        # leaving tie-break by lowest variable index (Bland-safe)
        p = int(ties[np.argmin(basis[ties])])
        obj = float(c[basis] @ xB)
        stall = stall + 1 if obj >= last_obj - 1e-12 * (1.0 + abs(obj)) else 0
        last_obj = min(last_obj, obj)
        basis[p] = q
    raise LpError(f"simplex did not terminate within {max_iters} iterations")


# ---------------------------------------------------------------------------
# Hull model and the clipping block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullModel:
    """Convex hull of the t reduced training logits (rows of ``points``).

    Keeps every training point as a generator. ``simplex_idx`` names the
    vertices of a max-volume inscribed simplex used only to certify
    interior points cheaply; ``degenerate`` flags clouds too flat to build
    one (clipping still works, every query just takes the LP route).
    """

    points: np.ndarray  # (t, N)
    basis: Optional[ProjectionBasis] = None
    simplex_idx: Optional[np.ndarray] = None
    _bary_solver: Optional[tuple] = None
    degenerate: bool = False

    @classmethod
    def from_points(cls, points: np.ndarray, basis=None) -> "HullModel":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("hull needs a non-empty (t, N) point array")
        if not np.all(np.isfinite(points)):
            raise ValueError("hull points must be finite")
        idx, solver = _inscribed_simplex(points)
        return cls(
            points=points,
            basis=basis,
            simplex_idx=idx,
            _bary_solver=solver,
            degenerate=idx is None,
        )

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def interior_mask(self, V: np.ndarray) -> np.ndarray:
        """True where the inscribed simplex certifies containment."""
        if self._bary_solver is None:
            return np.zeros(V.shape[0], dtype=bool)
        origin, inv_T = self._bary_solver
        W = (V - origin) @ inv_T.T  # barycentric coordinates (minus first)
        w0 = 1.0 - W.sum(axis=1)
        return (
            np.all(W >= _INTERIOR_MARGIN, axis=1) & (w0 >= _INTERIOR_MARGIN)
        )


def _inscribed_simplex(points: np.ndarray):
    """Greedy max-volume simplex of hull points; None when degenerate."""
    t, N = points.shape
    if t < N + 1:
        return None, None
    centroid = points.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(points - centroid, axis=1)))
    chosen = [first]
    # grow by farthest point from the current affine hull
    Q = np.zeros((N, 0))
    for _ in range(N):
        rel = points - points[chosen[0]]
        resid = rel - (rel @ Q) @ Q.T
        dist = np.linalg.norm(resid, axis=1)
        nxt = int(np.argmax(dist))
        scale = max(np.linalg.norm(points[chosen[0]]), 1.0)
        if dist[nxt] <= 1e-12 * scale:
            return None, None
        chosen.append(nxt)
        q = resid[nxt] / dist[nxt]
        Q = np.column_stack([Q, q])
    idx = np.array(chosen, dtype=np.int64)
    origin = points[idx[0]]
    T = (points[idx[1:]] - origin).T  # (N, N)
    try:
        inv_T = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        return None, None
    return idx, (origin, inv_T)


class _ClipProblem:
    """Prebuilt standard-form arrays for projecting points onto one hull.

    Standard form for the l-inf variant (P is N x t, columns = hull points):

        [ P   -1  I  0 ] [alpha]   [ v]
        [-P   -1  0  I ] [  s  ] = [-v]
        [1^T   0  0  0 ] [slack]   [ 1]

    with everything nonnegative; minimize s. The l1 variant replaces the
    single epigraph variable by N of them. Only the right-hand side
    depends on the query point, and a feasible basis can be written down
    directly from the nearest hull point, so each solve starts in phase 2
    a few pivots from optimal.
    """

    def __init__(self, hull: HullModel, norm: str):
        P = hull.points.T.copy()
        N, t = P.shape
        self.P = P
        self.N, self.t = N, t
        self.norm = norm
        if norm == "l_inf":
            n_epi = 1
            epi_block = -np.ones((2 * N, 1))
        elif norm == "l_1":
            n_epi = N
            epi_block = -np.vstack([np.eye(N), np.eye(N)])
        else:
            raise ValueError(f"norm must be 'l_inf' or 'l_1', got {norm!r}")
        M = 2 * N + 1
        cols = t + n_epi + 2 * N
        A = np.zeros((M, cols))
        A[:N, :t] = P
        A[N : 2 * N, :t] = -P
        A[: 2 * N, t : t + n_epi] = epi_block
        A[: 2 * N, t + n_epi :] = np.eye(2 * N)
        A[2 * N, :t] = 1.0
        c = np.zeros(cols)
        c[t : t + n_epi] = 1.0
        self.A, self.c = A, c
        self.n_epi = n_epi
        self.max_iters = 50 * (cols + M) + 200

    def rhs(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([v, -v, [1.0]])

    def initial_basis(self, v: np.ndarray) -> np.ndarray:
        """Feasible basis at the hull vertex nearest to v."""
        P, t, N, n_epi = self.P, self.t, self.N, self.n_epi
        if self.norm == "l_inf":
            j0 = int(np.argmin(np.max(np.abs(v[:, None] - P), axis=0)))
            r = v - P[:, j0]
            i0 = int(np.argmax(np.abs(r)))
            # the inf-norm row that binds contributes no slack to the basis
            drop = t + n_epi + i0 if r[i0] <= 0 else t + n_epi + N + i0
            slack_cols = [t + n_epi + k for k in range(2 * N) if t + n_epi + k != drop]
            return np.array([j0, t] + slack_cols, dtype=np.int64)
        j0 = int(np.argmin(np.sum(np.abs(v[:, None] - P), axis=0)))
        r = v - P[:, j0]
        # all epigraph vars basic; per coordinate, the binding side's slack leaves
        slack_cols = [
            t + n_epi + i if r[i] <= 0 else t + n_epi + N + i for i in range(N)
        ]
        keep = [
            col
            for col in range(t + n_epi, t + n_epi + 2 * N)
            if col not in set(slack_cols)
        ]
        return np.array([j0] + list(range(t, t + n_epi)) + keep, dtype=np.int64)

    def solve(self, v: np.ndarray):
        basis = self.initial_basis(v)
        b = self.rhs(v)
        final_basis, xB, _ = _iterate(
            self.A, b, self.c, basis, self.max_iters
        )
        x = np.zeros(self.A.shape[1])
        x[final_basis] = xB
        alpha = x[: self.t]
        residual = float(self.c @ x)
        return alpha, residual


def clip(v: np.ndarray, hull: HullModel, norm: str = "l_inf"):
    """Project one reduced point onto the hull.

    Returns (v_hat, alpha, residual): the projection, its convex
    coefficients over the hull points, and the attained norm distance.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (hull.dim,):
        raise ValueError(f"point must have shape ({hull.dim},), got {v.shape}")
    alpha, residual = _ClipProblem(hull, norm).solve(v)
    v_hat = hull.points.T @ alpha
    return v_hat, alpha, residual


def clip_batch(V: np.ndarray, hull: HullModel, norm: str = "l_inf"):
    """Project (k, N) points; returns (V_hat, residuals) without alphas.

    Interior points certified by the inscribed simplex keep their exact
    coordinates with residual zero; the remainder go through the LP one at
    a time in input order.
    """
    V = np.asarray(V, dtype=np.float64)
    out = V.copy()
    residuals = np.zeros(V.shape[0])
    todo = np.nonzero(~hull.interior_mask(V))[0]
    if todo.size:
        problem = _ClipProblem(hull, norm)
        for i in todo:
            alpha, residuals[i] = problem.solve(V[i])
            out[i] = hull.points.T @ alpha
    return out, residuals


# ---------------------------------------------------------------------------
# Surrogate model and its inflated reachset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurrogateReachSet:
    """Lifted hull inflated by the conformal error box.

    Component k of the reachset projects to the interval
    [error_center(k) + lift_lb(k) - sigma(k),
     error_center(k) + lift_ub(k) + sigma(k)].
    """

    hull: HullModel
    basis: ProjectionBasis
    error_center: np.ndarray
    error_sigma: np.ndarray
    lift_lb: np.ndarray
    lift_ub: np.ndarray
    guarantee: GuaranteeSpec

    def __post_init__(self):
        n, N = self.basis.input_dim, self.basis.num_components
        if self.hull.dim != N:
            raise ValueError(f"hull dimension {self.hull.dim} != basis components {N}")
        for name in ("error_center", "error_sigma", "lift_lb", "lift_ub"):
            shape = np.shape(getattr(self, name))
            if shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {shape}")
        if np.any(self.lift_lb > self.lift_ub):
            raise ValueError("lift_lb must be <= lift_ub")
        if np.any(self.error_sigma < 0):
            raise ValueError("error_sigma must be non-negative")

    def project_intervals(self):
        return (
            self.error_center + self.lift_lb - self.error_sigma,
            self.error_center + self.lift_ub + self.error_sigma,
        )


def surrogate_predict(
    model: MlpNetwork,
    basis: ProjectionBasis,
    hull: HullModel,
    x: np.ndarray,
    norm: str = "l_inf",
) -> np.ndarray:
    """g(x) = A clip(A^T f(x)): reduce the logits, project onto the hull,
    lift back. Accepts (n0,) or (k, n0)."""
    y = infer(model, x)
    single = y.ndim == 1
    Y = y[None, :] if single else y
    V = Y @ basis.matrix
    V_hat, _ = clip_batch(V, hull, norm)
    G = V_hat @ basis.matrix.T
    return G[0] if single else G


def build_surrogate_reachset(
    model: MlpNetwork,
    spec: PerturbationSpec,
    train_size: int,
    calib_size: int,
    aux_size: int,
    num_components: int,
    guarantee: GuaranteeSpec,
    seed: int = 0,
    norm: str = "l_inf",
) -> SurrogateReachSet:
    """End-to-end surrogate construction from disjoint seeded batches.

    Stage order: train the basis and hull on ``train_size`` samples,
    bound the lifted hull, fit error normalization on ``aux_size``
    separate samples, calibrate the error scores on ``calib_size`` more,
    then assemble the inflated set. Any failure is re-raised with the
    stage name attached.
    """
    if guarantee.calib_size_m != calib_size:
        raise ValueError("guarantee and calib_size disagree")

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise PipelineStageError(f"{name}: {exc}") from exc

    def train():
        Y = np.vstack(list(stage_outputs(model, spec, seed, "train", train_size)))
        basis = deflate(Y, num_components)
        V = Y @ basis.matrix
        hull = HullModel.from_points(V, basis=basis)
        lifted = V @ basis.matrix.T
        return basis, hull, lifted.min(axis=0), lifted.max(axis=0)

    basis, hull, lift_lb, lift_ub = stage("train", train)

    def residuals(stage_name, count):
        rows = []
        for Y in stage_outputs(model, spec, seed, stage_name, count):
            V_hat, _ = clip_batch(Y @ basis.matrix, hull, norm)
            rows.append(Y - V_hat @ basis.matrix.T)
        return np.vstack(rows)

    cs_q = stage("normalize", lambda: center_and_scales(residuals("aux", aux_size)))
    calib = stage(
        "calibrate",
        lambda: build_calibration(
            residuals("calib", calib_size), cs_q, source="surrogate-errors"
        ),
    )
    threshold = calib.rank_score(guarantee.rank_ell)
    return SurrogateReachSet(
        hull=hull,
        basis=basis,
        error_center=cs_q.center,
        error_sigma=cs_q.tau * threshold,
        lift_lb=lift_lb,
        lift_ub=lift_ub,
        guarantee=guarantee,
    )


# ---------------------------------------------------------------------------
# Persistence: basis container + raw hull points + JSON sidecar
# ---------------------------------------------------------------------------


def save_surrogate(sr: SurrogateReachSet, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    save_basis(sr.basis, os.path.join(directory, "basis.pca"))
    np.ascontiguousarray(sr.hull.points, dtype="<f8").tofile(
        os.path.join(directory, "hull_points.f64")
    )
    sidecar = {
        "hull_shape": list(sr.hull.points.shape),
        "error_center": sr.error_center.tolist(),
        "error_sigma": sr.error_sigma.tolist(),
        "lift_lb": sr.lift_lb.tolist(),
        "lift_ub": sr.lift_ub.tolist(),
        "guarantee": sr.guarantee.as_dict(),
    }
    with open(os.path.join(directory, "surrogate.json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_surrogate(directory) -> SurrogateReachSet:
    with open(os.path.join(directory, "surrogate.json")) as fh:
        sidecar = json.load(fh)
    basis = load_basis(os.path.join(directory, "basis.pca"))
    t, N = sidecar["hull_shape"]
    points = np.fromfile(
        os.path.join(directory, "hull_points.f64"), dtype="<f8"
    ).reshape(t, N)
    g = sidecar["guarantee"]
    guarantee = guarantee_confidence(g["epsilon"], g["rank_ell"], g["calib_size_m"])
    return SurrogateReachSet(
        hull=HullModel.from_points(points, basis=basis),
        basis=basis,
        error_center=np.array(sidecar["error_center"]),
        error_sigma=np.array(sidecar["error_sigma"]),
        lift_lb=np.array(sidecar["lift_lb"]),
        lift_ub=np.array(sidecar["lift_ub"]),
        guarantee=guarantee,
    )
